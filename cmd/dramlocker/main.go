// Command dramlocker regenerates the paper's tables and figures by
// running experiment jobs through the internal/engine scheduler. The
// parameter-grid experiments (mc, table1, fig7a, fig7b, defense, table2)
// execute as independent shards — per curve, threshold, mechanism or
// defended model — interleaved on the same worker pool.
//
// Usage:
//
//	dramlocker -exp table1
//	dramlocker -exp fig8a -preset small
//	dramlocker -exp 'fig8*' -preset tiny,small -workers 8
//	dramlocker -exp all -preset tiny -json
//	dramlocker -exp all -preset paper -cache-dir ~/.cache/dramlocker
//	dramlocker -exp all -preset tiny -remote 10.0.0.7:9740,10.0.0.8:9740
//	dramlocker -exp all -preset tiny -broker 10.0.0.9:9741 -tenant ci
//	dramlocker -exp all -broker 10.0.0.9:9741,10.0.0.10:9741   # with failover
//	dramlocker -broker 10.0.0.10:9741 -promote   # promote that standby
//	dramlocker -broker 10.0.0.9:9741 -stats
//	dramlocker -broker 10.0.0.9:9741 -stats -json
//	dramlocker -broker 10.0.0.9:9741 -fleet -watch 2s
//	dramlocker -exp all -preset tiny -plane 10.0.0.9:9742 -cache-dir /tmp/c
//	dramlocker -list
//	dramlocker -list -json
//
// Experiments: fig1a fig1b mc table1 fig7a fig7b defense fig8a fig8b
// fig8pta table2 perf all, or any glob over the full job names
// ("<preset>/<experiment>", e.g. "tiny/fig8a"). Presets: tiny small
// paper (see internal/experiments). -workers 0 uses every CPU; -workers 1
// reproduces the old serial behavior.
//
// Remote execution: -remote hands the tasks to dramlockerd worker
// daemons instead of the in-process pool. The scheduler stays local —
// ordering, seeding, merging and caching never leave this process — so
// the report is byte-identical to a local run; workers that fail are
// excluded and their tasks retried elsewhere, falling back to local
// execution when the whole fleet is unreachable. Daemons must serve the
// presets the run selects (dramlockerd -preset ...).
//
// Queue execution: -broker submits the tasks to a dramlockerd -broker
// job queue instead, where registered pull workers pick them up —
// membership is dynamic, capacity is shared equally across tenants,
// and a dead worker's tasks requeue when its leases expire. -tenant
// names this run's fairness bucket and -priority orders it within the
// tenant. The same
// scheduler-side guarantees hold: the report is byte-identical to a
// local or -remote run. -remote and -broker are mutually exclusive.
//
// High availability: -broker accepts a comma-separated failover list
// (primary first, standbys after). The executor prefers the reachable
// primary and, when a broker answers not_leader or stops answering,
// fails over to the address the error names (or the next list entry),
// resubmitting any job lost in the replication gap — the report stays
// byte-identical across a mid-run takeover. -promote (with -broker)
// asks the standby at that address to promote itself to primary
// (POST /v2/promote): the manual half of a planned failover, the
// unplanned half being the standby's own -takeover-after timer.
//
// -list prints the registered jobs with shard counts and cache-key
// stems; -list -json emits the same listing as the dlexec2 api.Listing
// wire schema, for broker tooling and scripts.
//
// -stats (with -broker) fetches the broker's GET /v2/metrics and
// renders a one-screen operational summary: queue census, lifetime
// counters, journal activity, result-plane counters, per-tenant
// depth/age gauges and the oldest in-flight leases with their progress
// age. With -json the raw api.BrokerMetrics payload is emitted instead
// — the same schema the broker serves, so scripts and the e2e gates
// parse one shape.
//
// -fleet (with -broker) fetches GET /v2/fleet — the live per-worker
// view: every registered worker, its active leases, and each lease's
// last progress heartbeat ("train 3/10, 2s ago"). -watch re-renders on
// an interval, making it a minimal top(1) for the fleet; -json emits
// the raw api.FleetStatus.
//
// -plane ADDR attaches this run's cache to a fleet-wide result plane
// (dramlockerd -result-plane): lookups go plane → local cache →
// compute, computed results are written through to both, and the
// plane's claim API ensures only one machine in the fleet computes a
// given key (others long-poll and replay the winner's result). A dead
// plane degrades to the local tiers. Requires caching (-no-cache and
// -plane are mutually exclusive).
//
// Caching: results are memoised per shard under a key built from the
// experiment id, the preset hash, the shard name and the base seed; a
// replayed job runs its merge again. By default the cache lives in
// process memory (deduping repeated and preset-free jobs within one
// run). With -cache-dir it also persists as JSON lines under that
// directory, so a re-run of the same presets — even from a new
// process — replays every shard instead of recomputing; entries are
// invalidated by preset changes (new hash → new key) and by code changes
// (experiments.CacheVersion stamp). -no-cache disables caching entirely;
// -require-cached turns a warm run into a gate (non-zero exit unless
// every job replayed), which CI uses to guard the persistence path.
//
// Cancellation: SIGINT/SIGTERM cancel the run — queued work is skipped,
// in-flight remote calls abort — and the process still renders the
// partial report and flushes -cpuprofile/-memprofile before exiting.
//
// Profiling: -cpuprofile and -memprofile write pprof profiles of the
// run, the quickest way to see where a preset spends its time (the
// compute kernels, the DRAM simulation, or the engine itself).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/resultplane"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids or globs (fig1a fig1b mc table1 fig7a fig7b defense fig8a fig8b fig8pta table2 perf all)")
	preset := flag.String("preset", "small", "comma-separated scale presets (tiny small paper)")
	workers := flag.Int("workers", 0, "worker-pool size (0 = number of CPUs, 1 = serial)")
	jsonOut := flag.Bool("json", false, "emit the structured JSON report instead of text")
	list := flag.Bool("list", false, "list the registered jobs (shard counts and cache keys included) and exit")
	quiet := flag.Bool("quiet", false, "suppress per-job progress on stderr")
	cacheDir := flag.String("cache-dir", "", "persist the result cache as JSON lines under this directory (empty = in-memory only)")
	noCache := flag.Bool("no-cache", false, "disable result caching entirely (recompute everything)")
	requireCached := flag.Bool("require-cached", false, "fail unless every job is served from the cache (CI warm-run gate)")
	remoteAddrs := flag.String("remote", "", "comma-separated dramlockerd worker addresses (host:port); empty = in-process execution")
	brokerAddr := flag.String("broker", "", "dramlockerd -broker address (host:port); submit tasks through the job queue instead of -remote push")
	tenant := flag.String("tenant", "", "broker fairness bucket this run submits under (default: the broker's default tenant)")
	priority := flag.Int("priority", 0, "broker priority within the tenant (higher dispatches first)")
	stats := flag.Bool("stats", false, "with -broker: fetch and render the broker's /v2/metrics, then exit (-json for the raw payload)")
	promote := flag.Bool("promote", false, "with -broker: promote the standby broker at that address to primary (POST /v2/promote), then exit")
	haToken := flag.String("ha-token", "", "with -promote: shared secret matching the broker's -ha-token (empty when the broker runs without one)")
	fleet := flag.Bool("fleet", false, "with -broker: fetch and render the broker's /v2/fleet live worker/lease view, then exit (-json for the raw payload)")
	watch := flag.Duration("watch", 0, "with -fleet: re-render every interval (0 = render once)")
	planeAddr := flag.String("plane", "", "result plane address (dramlockerd -result-plane); attach this run's cache to the fleet-wide plane")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// A signal cancels the engine pass instead of killing the process:
	// run returns with the partial report's errors, and the profile
	// defers above still flush. After the first signal the handler is
	// removed, so a second Ctrl-C falls back to the default hard exit —
	// an escape hatch if in-flight work ignores the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	err := run(ctx, config{
		exp: *exp, preset: *preset, workers: *workers,
		jsonOut: *jsonOut, list: *list, quiet: *quiet,
		cacheDir: *cacheDir, noCache: *noCache, requireCached: *requireCached,
		remote: *remoteAddrs, broker: *brokerAddr, tenant: *tenant, priority: *priority,
		stats: *stats, promote: *promote, haToken: *haToken, fleet: *fleet, watch: *watch, plane: *planeAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}

	if *memProfile != "" {
		if merr := writeMemProfile(*memProfile); merr != nil {
			fmt.Fprintln(os.Stderr, merr)
			if err == nil {
				err = merr
			}
		}
	}

	if err != nil {
		// os.Exit skips the deferred stop; flush -cpuprofile explicitly so
		// a failed run still leaves a valid profile behind.
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

// writeMemProfile captures the end-of-run heap profile.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialise final live-heap statistics
	return pprof.WriteHeapProfile(f)
}

// config carries the parsed flags.
type config struct {
	exp, preset   string
	workers       int
	jsonOut       bool
	list          bool
	quiet         bool
	cacheDir      string
	noCache       bool
	requireCached bool
	remote        string
	broker        string
	tenant        string
	priority      int
	stats         bool
	promote       bool
	haToken       string
	fleet         bool
	watch         time.Duration
	plane         string
}

func run(ctx context.Context, cfg config) error {
	reg, err := experiments.BuildRegistry(experiments.SplitList(cfg.preset))
	if err != nil {
		return err
	}

	if cfg.list {
		return listJobs(reg, cfg.jsonOut)
	}
	if cfg.stats {
		if cfg.broker == "" {
			return fmt.Errorf("-stats needs -broker (whose /v2/metrics to fetch)")
		}
		return showStats(ctx, firstAddr(cfg.broker), cfg.jsonOut)
	}
	if cfg.promote {
		if cfg.broker == "" {
			return fmt.Errorf("-promote needs -broker (which standby to promote)")
		}
		return promoteBroker(ctx, firstAddr(cfg.broker), cfg.haToken)
	}
	if cfg.fleet {
		if cfg.broker == "" {
			return fmt.Errorf("-fleet needs -broker (whose /v2/fleet to fetch)")
		}
		return showFleet(ctx, firstAddr(cfg.broker), cfg.jsonOut, cfg.watch)
	}
	if cfg.remote != "" && cfg.broker != "" {
		return fmt.Errorf("-remote and -broker are mutually exclusive (push vs queue dispatch)")
	}

	cache, err := buildCache(cfg)
	if err != nil {
		return err
	}
	defer cache.Close()
	if cfg.plane != "" {
		if cache == nil {
			return fmt.Errorf("-plane needs caching (-no-cache and -plane are mutually exclusive)")
		}
		pc := resultplane.NewClient(cfg.plane, experiments.CacheVersion)
		cache.SetRemote(&resultplane.EngineCache{C: pc})
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "plane     %s (version %s)\n", pc.Base, experiments.CacheVersion)
		}
	}

	opts := engine.Options{
		Workers: cfg.workers,
		Filter:  jobFilter(cfg.exp),
		Cache:   cache,
		Ctx:     ctx,
	}
	if addrs := experiments.SplitList(cfg.remote); len(addrs) > 0 {
		re, err := remote.Dial(ctx, addrs, remote.Options{
			Fallback: engine.NewLocalExecutor(reg),
		})
		if err != nil {
			return err
		}
		opts.Executor = re
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "remote    %s\n", strings.Join(re.Workers(), " "))
		}
	}
	if cfg.broker != "" {
		qe, err := remote.DialQueue(ctx, cfg.broker, remote.QueueOptions{
			Tenant:   cfg.tenant,
			Priority: cfg.priority,
		})
		if err != nil {
			return err
		}
		opts.Executor = qe
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "broker    %s\n", qe.Broker())
		}
	}
	if !cfg.quiet {
		opts.OnDone = func(r engine.Result) {
			status := "done"
			switch {
			case r.Failed():
				status = "FAILED"
			case r.Cached:
				status = "cached"
			}
			fmt.Fprintf(os.Stderr, "%-8s %-16s %v\n", status, r.Name, r.Duration.Round(time.Millisecond))
		}
	}

	rep, err := engine.Run(reg, opts)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		buf, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
	} else {
		fmt.Print(rep.Text())
	}
	if err := rep.Err(); err != nil {
		return err
	}
	if cfg.requireCached {
		if computed := len(rep.Results) - rep.CachedCount(); computed > 0 {
			return fmt.Errorf("-require-cached: %d of %d jobs were computed, not replayed from the cache",
				computed, len(rep.Results))
		}
	}
	return nil
}

// listJobs renders the registry listing. Unit (shard) counts and cache
// keys let operators predict remote fan-out and cache reuse before
// submitting a run. With jsonOut the listing is emitted as the dlexec2
// api.Listing wire schema, so broker tooling and scripts consume the
// same shape the protocol uses.
func listJobs(reg *engine.Registry, jsonOut bool) error {
	if jsonOut {
		listing := api.Listing{Proto: api.Version}
		for _, j := range reg.Jobs() {
			listing.Jobs = append(listing.Jobs, api.JobInfo{
				Name:  j.Name,
				Title: j.Title,
				Units: len(j.Shards),
				Key:   j.Key,
			})
		}
		buf, err := json.MarshalIndent(listing, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		return nil
	}
	fmt.Printf("%-16s %-6s %-24s %s\n", "JOB", "UNITS", "CACHE KEY", "TITLE")
	for _, j := range reg.Jobs() {
		key := j.Key
		if key == "" {
			key = "-"
		}
		fmt.Printf("%-16s %-6d %-24s %s\n", j.Name, len(j.Shards), key, j.Title)
	}
	return nil
}

// showStats fetches a broker's /v2/metrics and renders it: the raw
// api.BrokerMetrics JSON with jsonOut, otherwise a one-screen
// operational summary.
func showStats(ctx context.Context, addr string, jsonOut bool) error {
	base := remote.NormalizeAddr(addr)
	var m api.BrokerMetrics
	if err := fetchJSON(ctx, addr, base+remote.MetricsPath, &m); err != nil {
		return err
	}
	if err := api.CheckProto(m.Proto); err != nil {
		return fmt.Errorf("broker %s: %w", addr, err)
	}
	if jsonOut {
		buf, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		return nil
	}
	fmt.Printf("broker     %s (proto %s)\n", base, m.Proto)
	if m.Role != "" {
		fmt.Printf("role       %s, epoch %d\n", m.Role, m.Epoch)
	}
	if rm := m.Replication; rm != nil {
		lag := "crossing a segment boundary"
		if rm.LagBytes >= 0 {
			lag = fmt.Sprintf("%d bytes", rm.LagBytes)
		}
		fmt.Printf("replicate  cursor seg %d @ %d, primary seg %d @ %d, lag %s (%d segments behind)\n",
			rm.Segment, rm.Offset, rm.PrimarySegment, rm.PrimaryOffset, lag, rm.SegmentsBehind)
		fmt.Printf("           %d applied, %d duplicates, %d skipped over %d batches (%d restarts), last contact %v ago\n",
			rm.Applied, rm.Duplicates, rm.Skipped, rm.Batches, rm.Restarts,
			time.Duration(rm.LastContactAgeNS).Round(time.Millisecond))
	}
	fmt.Printf("queue      %d pending, %d leased, %d workers, %d jobs retained\n",
		m.Pending, m.Leased, m.Workers, m.Jobs)
	fmt.Printf("lifetime   %d submitted, %d completed (%d failed), %d requeues\n",
		m.Submitted, m.Completed, m.Failed, m.Requeues)
	fmt.Printf("duplicates %d (%d byte-identical cache hits)\n",
		m.Duplicates, m.DupCacheHits)
	fmt.Printf("admission  %d rate-limited submissions, %d goroutines\n",
		m.RateLimited, m.Goroutines)
	if jm := m.Journal; jm != nil {
		fmt.Printf("journal    %d appends (%d fsyncs), replayed %d jobs / %d tasks (%d requeued, %d lines skipped), %d compactions\n",
			jm.Appends, jm.Fsyncs, jm.ReplayedJobs, jm.ReplayedTasks,
			jm.Requeued, jm.Skipped, jm.Compactions)
		fmt.Printf("segments   %d on disk (%d rotations), active %d bytes\n",
			jm.Segments, jm.Rotations, jm.ActiveBytes)
		if jm.StreamReads > 0 {
			fmt.Printf("stream     %d replication reads served (%d bytes)\n",
				jm.StreamReads, jm.StreamBytes)
		}
	}
	if m.PlaneHits > 0 || m.Plane != nil {
		fmt.Printf("plane      %d broker dispatch hits (tasks completed at submit, zero leases)\n", m.PlaneHits)
	}
	if pm := m.Plane; pm != nil {
		fmt.Printf("plane      %d entries (%d bytes), %d puts (%d dup, %d conflicts), %d hits / %d misses (%d via long-poll)\n",
			pm.Entries, pm.BytesStored, pm.Puts, pm.DupPuts, pm.Conflicts,
			pm.Hits, pm.Misses, pm.WaitHits)
		fmt.Printf("claims     %d granted, %d denied (fleet-wide single-flight)\n",
			pm.ClaimsGranted, pm.ClaimsDenied)
	}
	for _, t := range m.Tenants {
		fmt.Printf("tenant     %-12s pending %d (oldest %v), served %d\n",
			t.Tenant, t.Pending,
			time.Duration(t.OldestAgeNS).Round(time.Millisecond), t.Served)
	}
	for _, l := range m.Leases {
		fmt.Printf("lease      %-12s %-16s worker %s, age %v, progress %v ago\n",
			l.Lease, l.Task, l.Worker,
			time.Duration(l.AgeNS).Round(time.Millisecond),
			time.Duration(l.ProgressAgeNS).Round(time.Millisecond))
	}
	return nil
}

// showFleet fetches a broker's /v2/fleet and renders the live
// worker/lease view; watch > 0 re-renders on that interval until the
// context cancels (a minimal fleet top).
func showFleet(ctx context.Context, addr string, jsonOut bool, watch time.Duration) error {
	base := remote.NormalizeAddr(addr)
	for {
		var fs api.FleetStatus
		if err := fetchJSON(ctx, addr, base+remote.FleetPath, &fs); err != nil {
			return err
		}
		if err := api.CheckProto(fs.Proto); err != nil {
			return fmt.Errorf("broker %s: %w", addr, err)
		}
		if jsonOut {
			buf, err := json.MarshalIndent(fs, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(buf))
		} else {
			if watch > 0 {
				fmt.Print("\x1b[2J\x1b[H") // clear the screen between frames
			}
			renderFleet(fs, base)
		}
		if watch <= 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(watch):
		}
	}
}

// renderFleet prints one frame of the fleet view.
func renderFleet(fs api.FleetStatus, base string) {
	fmt.Printf("fleet      %s (proto %s, %d workers)\n", base, fs.Proto, len(fs.Workers))
	if len(fs.Workers) == 0 {
		fmt.Println("           no workers registered")
		return
	}
	for _, w := range fs.Workers {
		drain := ""
		if w.Draining {
			drain = " DRAINING"
		}
		fmt.Printf("worker     %-12s capacity %d, %d leases, last seen %v ago%s\n",
			w.Name, w.Capacity, len(w.Leases),
			time.Duration(w.LastSeenAgeNS).Round(time.Millisecond), drain)
		for _, l := range w.Leases {
			prog := "no progress reported"
			if p := l.Progress; p != nil {
				prog = p.Stage
				if p.Total > 0 {
					prog = fmt.Sprintf("%s %d/%d", p.Stage, p.Done, p.Total)
				} else if p.Done > 0 {
					prog = fmt.Sprintf("%s %d", p.Stage, p.Done)
				}
				prog = fmt.Sprintf("%s, %v ago", prog, time.Duration(l.ProgressAgeNS).Round(time.Millisecond))
			}
			tenant := ""
			if l.Tenant != "" {
				tenant = " tenant " + l.Tenant
			}
			fmt.Printf("  lease    %-10s %s[%d]%s age %v, %s\n",
				l.ID, l.Job, l.Shard, tenant,
				time.Duration(l.AgeNS).Round(time.Millisecond), prog)
		}
	}
}

// promoteBroker asks the standby broker at addr to promote itself to
// primary — the operator half of a planned failover.
func promoteBroker(ctx context.Context, addr, token string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var rep api.PromoteReply
	if err := remote.PostJSON(ctx, http.DefaultClient, remote.NormalizeAddr(addr)+remote.PromotePath,
		api.PromoteRequest{Proto: api.Version, Token: token}, &rep); err != nil {
		return fmt.Errorf("broker %s: %w", addr, err)
	}
	if err := api.CheckProto(rep.Proto); err != nil {
		return fmt.Errorf("broker %s: %w", addr, err)
	}
	fmt.Printf("broker %s promoted to %s at epoch %d (%d leases requeued)\n",
		addr, rep.Role, rep.Epoch, rep.Requeued)
	return nil
}

// firstAddr picks the first entry of a (possibly comma-separated)
// broker list: the introspection and promote verbs target one broker.
func firstAddr(addr string) string {
	return strings.TrimSpace(strings.Split(addr, ",")[0])
}

// fetchJSON GETs one introspection endpoint and decodes the reply
// through remote.GetJSON: bounded at remote.MaxBodyBytes, refusals
// decoded as typed api errors.
func fetchJSON(ctx context.Context, addr, url string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := remote.GetJSON(ctx, http.DefaultClient, url, out); err != nil {
		return fmt.Errorf("broker %s: %w", addr, err)
	}
	return nil
}

// buildCache resolves the caching flags: disabled, in-memory (the
// default, deduping within this run) or disk-backed (shared across runs
// and processes, stamped with experiments.CacheVersion).
func buildCache(cfg config) (*engine.Cache, error) {
	switch {
	case cfg.noCache:
		if cfg.requireCached {
			return nil, fmt.Errorf("-require-cached is meaningless with -no-cache")
		}
		return nil, nil
	case cfg.cacheDir != "":
		return engine.OpenDiskCache(cfg.cacheDir, experiments.CacheVersion)
	default:
		return engine.NewCache(), nil
	}
}

// jobFilter turns the -exp flag into engine filter patterns. Bare
// experiment ids (no '/') apply across every registered preset.
func jobFilter(exp string) []string {
	var pats []string
	for _, pat := range experiments.SplitList(exp) {
		if pat != "all" && !strings.Contains(pat, "/") {
			pat = "*/" + pat
		}
		pats = append(pats, pat)
	}
	return pats
}
