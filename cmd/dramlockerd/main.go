// Command dramlockerd is the distributed-execution daemon. It runs in
// one of three modes:
//
//	dramlockerd                                  # push worker on 127.0.0.1:9740
//	dramlockerd -addr 0.0.0.0:9740 -capacity 8
//	dramlockerd -preset tiny,small -name rack7
//	dramlockerd -broker -addr 0.0.0.0:9741       # job-queue broker
//	dramlockerd -broker -journal-dir /var/lib/dramlocker -max-submit-rate 100
//	dramlockerd -broker -follow 10.0.0.9:9741    # hot standby replicating that primary
//	dramlockerd -broker -follow 10.0.0.9:9741 -takeover-after 10s
//	dramlockerd -pull 10.0.0.9:9741              # pull worker for that broker
//	dramlockerd -pull 10.0.0.9:9741,10.0.0.10:9741   # with broker failover
//	dramlockerd -result-plane -addr 0.0.0.0:9742 # content-addressed result plane
//	dramlockerd -broker -result-plane            # broker + co-hosted plane
//	dramlockerd -pull 10.0.0.9:9741 -plane 10.0.0.9:9742   # plane-attached worker
//
// Push worker (default): builds the same job registry as the CLI (one
// job per preset × experiment, shards included) and executes the tasks a
// scheduler POSTs to /v1/execute; GET /v1/status reports identity,
// registry size, protocol and drain state. Tasks arrive as (job name,
// shard index, seed, cache-key stem) — internal/api, protocol dlexec2 —
// and the daemon refuses any task whose cache key its own registry
// cannot reproduce, so a worker built from different preset knobs or
// experiment code can never feed a scheduler's cache.
//
// Broker (-broker): serves the dlexec2 job queue instead — schedulers
// submit jobs (dramlocker -broker), workers register and pull leases
// (dramlockerd -pull). The broker executes nothing and holds no
// registry; it routes opaque tasks with equal per-tenant fairness and
// requeues tasks whose lease expires (-lease-ttl). GET /v1/status
// answers with role "broker". With -journal-dir the backlog is
// crash-safe: submissions, completions and cancels are fsynced to an
// append-only journal and replayed (then compacted) on restart, so a
// SIGKILLed broker resumes where it died. -max-submit-rate bounds each
// tenant's sustained submission rate with a token bucket; overflow gets
// the retryable rate_limited error carrying the broker's own
// Retry-After estimate. The journal's active segment rotates past
// -journal-max-bytes and sealed segments are compacted in the
// background, so the directory stays bounded under load. GET
// /v2/metrics exports the queue census, journal counters and
// per-tenant gauges as JSON or (?format=prometheus) Prometheus text.
//
// High availability (-broker -follow PRIMARY): the broker starts as a
// hot standby — it streams the primary's journal over /v2/replicate
// into its own journal and in-memory state, answers read-only routes
// (status, metrics, fleet, job status) and refuses mutations with the
// retryable not_leader error naming the primary. It promotes to
// primary on POST /v2/promote (dramlocker -promote) or — with
// -takeover-after — after the primary has been silent that long;
// promotion bumps the fencing epoch, requeues inherited leases, and
// fences the ex-primary (POST /v2/fence) so a zombie that comes back
// refuses mutations instead of splitting the brain. -advertise names
// the address clients should be redirected to (default: the listen
// address). -ha-token gates /v2/promote and /v2/fence behind a shared
// secret (give every broker peer, and the promoting operator, the same
// value); without it those endpoints accept any caller that reaches
// the port, so keep it reachable by broker peers only.
// Clients and workers take comma-separated broker lists and follow
// not_leader hints automatically.
//
// -fault-plan loads a faultinject JSON plan (chaos testing: dropped or
// delayed requests, torn journal writes) and is refused unless
// -allow-faults is also set, so the flag cannot leak into production
// quietly. On exit every mode logs a receipt line with the
// process-wide backoff count and which faults actually fired.
//
// Pull worker (-pull broker-addr): registers with a broker and works
// its queue — poll, execute against the local registry, renew, report.
// Membership is dynamic: workers join and leave freely, and a worker
// that dies mid-lease is recovered by lease expiry.
//
// Result plane (-result-plane): serves the fleet-wide content-addressed
// result store (internal/resultplane) — GET/PUT of versioned cache
// entries plus claim-based cross-machine single-flight. Standalone it
// owns the listen address; combined with -broker the /v3 object routes
// co-host on the broker's mux and the broker consults the store before
// dispatching, completing fully cached tasks at submit with zero
// leases. -plane-dir persists the store as append-only JSON lines
// (replayed on restart); without it the plane is in-memory.
//
// Workers (push or pull) attach to a plane with -plane ADDR: task
// results are looked up plane-first (then the local in-process cache,
// then computed) and written through, with the plane's claim API
// ensuring only one worker in the fleet computes a given key. A dead
// or unreachable plane degrades to plain local execution.
//
// In every mode SIGINT/SIGTERM drain before exit: a push worker flips
// /v1/status to draining and refuses new tasks while in-flight ones
// finish; a broker refuses new submissions and registrations; a pull
// worker tells the broker to stop offering it leases and reports what
// it already holds. Results, ordering, merging and caching all stay on
// the scheduler side; daemons are stateless between tasks and keep no
// result cache of their own.
//
// -capacity bounds concurrent task executions (default: NumCPU). The
// compute kernels inside each task share the process-wide internal/par
// worker budget exactly as in the CLI, so a saturated daemon runs serial
// kernels inside parallel tasks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/backoff"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/resultplane"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9740", "listen address (host:port); ignored with -pull")
	preset := flag.String("preset", "tiny,small,paper", "comma-separated presets whose jobs this worker serves; ignored with -broker")
	name := flag.String("name", "", "daemon name advertised in /v1/status (default: hostname)")
	capacity := flag.Int("capacity", 0, "max concurrent task executions (0 = number of CPUs)")
	broker := flag.Bool("broker", false, "run the job-queue broker instead of a push worker")
	pull := flag.String("pull", "", "run a pull worker against the broker at this address instead of a push worker")
	leaseTTL := flag.Duration("lease-ttl", queue.DefaultLeaseTTL, "broker: lease duration before an unrenewed task requeues")
	journalDir := flag.String("journal-dir", "", "broker: journal submissions/results under this directory and replay them on startup (empty = in-memory only)")
	journalMaxBytes := flag.Int64("journal-max-bytes", 64<<20, "broker: rotate the journal's active segment past this size and compact sealed segments in the background (0 = never rotate)")
	maxSubmitRate := flag.Int("max-submit-rate", 0, "broker: per-tenant sustained submission rate in tasks/sec (token bucket, burst of one second); overflow gets rate_limited with Retry-After (0 = unlimited)")
	follow := flag.String("follow", "", "broker: start as a hot standby replicating the primary at this address; promote via /v2/promote or -takeover-after")
	takeoverAfter := flag.Duration("takeover-after", 0, "broker standby: promote automatically after the primary has been unreachable this long (0 = operator-only promotion)")
	advertise := flag.String("advertise", "", "broker: client-reachable address stamped into not_leader redirects and fencing records (default: the listen address)")
	haToken := flag.String("ha-token", "", "broker: shared secret required on /v2/promote and /v2/fence; set it on every broker peer (empty = unauthenticated — keep the port reachable by broker peers only)")
	resultPlane := flag.Bool("result-plane", false, "serve the content-addressed result plane (standalone, or co-hosted with -broker)")
	planeDir := flag.String("plane-dir", "", "result plane: persist entries as append-only JSON lines under this directory and replay them on startup (empty = in-memory only)")
	planeAddr := flag.String("plane", "", "worker modes: attach to the result plane at this address (plane-first lookups, write-through, fleet-wide single-flight)")
	faultPlan := flag.String("fault-plan", "", "chaos testing: inject faults from this JSON plan (refused without -allow-faults)")
	allowFaults := flag.Bool("allow-faults", false, "acknowledge that -fault-plan deliberately breaks this daemon")
	flag.Parse()

	if *broker && *pull != "" {
		fmt.Fprintln(os.Stderr, "dramlockerd: -broker and -pull are mutually exclusive")
		os.Exit(1)
	}
	if *resultPlane && *pull != "" {
		fmt.Fprintln(os.Stderr, "dramlockerd: -result-plane and -pull are mutually exclusive (a plane serves; a pull worker attaches with -plane)")
		os.Exit(1)
	}
	if *planeAddr != "" && (*broker || *resultPlane) {
		fmt.Fprintln(os.Stderr, "dramlockerd: -plane attaches a worker to a plane; server modes use -result-plane")
		os.Exit(1)
	}
	if *follow != "" && !*broker {
		fmt.Fprintln(os.Stderr, "dramlockerd: -follow is a broker mode; add -broker")
		os.Exit(1)
	}
	var faults *faultinject.Injector
	if *faultPlan != "" {
		if !*allowFaults {
			fmt.Fprintln(os.Stderr, "dramlockerd: -fault-plan deliberately injects failures; refusing without -allow-faults")
			os.Exit(1)
		}
		plan, err := faultinject.LoadPlan(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dramlockerd:", err)
			os.Exit(1)
		}
		faults = faultinject.New(plan)
		log.Printf("dramlockerd: FAULT INJECTION ACTIVE: %s (%d rules, seed %d)", *faultPlan, len(plan.Rules), plan.Seed)
	}
	bf := brokerFlags{
		leaseTTL:        *leaseTTL,
		journalDir:      *journalDir,
		journalMaxBytes: *journalMaxBytes,
		maxSubmitRate:   *maxSubmitRate,
		follow:          *follow,
		takeoverAfter:   *takeoverAfter,
		advertise:       *advertise,
		haToken:         *haToken,
	}
	pf := planeFlags{serve: *resultPlane, dir: *planeDir, attach: *planeAddr}
	err := run(*addr, *preset, *name, *capacity, *broker, *pull, bf, pf, faults)
	// The exit receipt: how many backoff delays the process took and
	// which injected faults actually landed. The chaos gate parses this
	// line to bound retry storms.
	log.Printf("dramlockerd: exit: backoff_total=%d faults_fired=%s", backoff.Total(), faults.Summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// planeFlags carries the result-plane flags: serve (the plane server,
// standalone or co-hosted), dir (its persistence), attach (a worker's
// upstream plane).
type planeFlags struct {
	serve  bool
	dir    string
	attach string
}

// brokerFlags carries the -broker mode's tuning flags.
type brokerFlags struct {
	leaseTTL        time.Duration
	journalDir      string
	journalMaxBytes int64
	maxSubmitRate   int
	follow          string
	takeoverAfter   time.Duration
	advertise       string
	haToken         string
}

func run(addr, preset, name string, capacity int, broker bool, pull string, bf brokerFlags, pf planeFlags, faults *faultinject.Injector) error {
	var err error
	if name == "" {
		if name, err = os.Hostname(); err != nil || name == "" {
			name = "dramlockerd"
		}
	}
	if capacity <= 0 {
		capacity = runtime.NumCPU()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reg *engine.Registry
	if !broker && !pf.serve {
		if reg, err = experiments.BuildRegistry(experiments.SplitList(preset)); err != nil {
			return err
		}
	}

	if pull != "" {
		opts := remote.WorkerOptions{
			Name:     name,
			Capacity: capacity,
			Client:   faultClient(faults),
		}
		if pf.attach != "" {
			opts.Executor = planeExecutor(reg, name, pf.attach, faults)
			log.Printf("dramlockerd %q attached to result plane %s", name, pf.attach)
		}
		w := remote.NewPullWorker(pull, reg, opts)
		log.Printf("dramlockerd %q pulling from broker %s (%d jobs, capacity %d, proto %s)",
			name, pull, reg.Len(), capacity, remote.ProtoVersion)
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		log.Printf("dramlockerd: drained, exiting")
		return nil
	}

	// Server modes bind before announcing, so ":0" resolves to a
	// concrete port and the ready line doubles as a readiness signal
	// (the e2e gates rely on it).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	switch {
	case broker:
		return runBroker(ctx, stop, ln, name, bf, pf, faults)
	case pf.serve:
		return runPlane(ctx, stop, ln, name, pf, faults)
	}
	ws := remote.NewServer(reg, name, capacity)
	if pf.attach != "" {
		ws.SetExecutor(planeExecutor(reg, name, pf.attach, faults))
		log.Printf("dramlockerd %q attached to result plane %s", name, pf.attach)
	}
	// A draining push worker advertises it (schedulers route around it)
	// and lets in-flight tasks finish.
	return serve(ctx, stop, ln, ws, faults, ws.Drain,
		fmt.Sprintf("dramlockerd %q serving %d jobs on %s (capacity %d, proto %s)",
			name, reg.Len(), ln.Addr(), capacity, remote.ProtoVersion),
		"dramlockerd: shutting down (draining in-flight tasks)")
}

// serve is every server mode's loop: it answers h behind the fault plan
// on ln and logs ready. When ctx ends it releases the signal handler (a
// second Ctrl-C hard-exits), calls drain (if any), logs shutdown and
// gives in-flight requests 30 s to finish.
func serve(ctx context.Context, stop context.CancelFunc, ln net.Listener, h http.Handler, faults *faultinject.Injector, drain func(), ready, shutdown string) error {
	srv := &http.Server{Handler: faultinject.Middleware(h, faults)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Print(ready)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	if drain != nil {
		drain()
	}
	log.Print(shutdown)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// config builds the broker's queue configuration from its flags.
func (bf brokerFlags) config() queue.Config {
	return queue.Config{
		LeaseTTL:      bf.leaseTTL,
		MaxSubmitRate: bf.maxSubmitRate,
		Follower:      bf.follow != "",
		PrimaryAddr:   bf.follow,
	}
}

// runBroker serves the job queue on ln until a signal, then drains:
// new submissions and registrations are refused while the backlog keeps
// flowing. With a journal dir the backlog is crash-safe: submissions,
// completions and cancels are journaled (fsynced before the reply) and
// replayed on the next startup.
func runBroker(ctx context.Context, stop context.CancelFunc, ln net.Listener, name string, bf brokerFlags, pf planeFlags, faults *faultinject.Injector) error {
	cfg := bf.config()
	if bf.journalDir != "" {
		jl, err := queue.OpenJournal(bf.journalDir, bf.journalMaxBytes)
		if err != nil {
			return err
		}
		defer jl.Close()
		jl.SetFaults(faults)
		cfg.Journal = jl
	}
	// Co-hosted result plane: the /v3 object routes share the broker's
	// listener, and the broker answers fully cached tasks from the store
	// at submit — zero leases for warm work.
	var store *resultplane.Store
	if pf.serve {
		var err error
		if store, err = resultplane.Open(pf.dir); err != nil {
			return err
		}
		defer store.Close()
		cfg.Plane = &resultplane.StorePlane{S: store, Version: experiments.CacheVersion}
	}
	b := queue.New(cfg)
	if m := b.Metrics(); m.Journal != nil {
		log.Printf("dramlockerd: journal %s: replayed %d jobs / %d tasks (%d requeued, %d completed, %d lines skipped)",
			bf.journalDir, m.Journal.ReplayedJobs, m.Journal.ReplayedTasks,
			m.Journal.Requeued, m.Completed, m.Journal.Skipped)
	}
	bs := remote.NewBrokerServer(b, name)
	bs.SetHAToken(bf.haToken)
	var handler http.Handler = bs
	if store != nil {
		bs.SetPlaneMetrics(store.Metrics)
		mux := http.NewServeMux()
		resultplane.NewServer(store, name).Routes(mux)
		mux.Handle("/", bs)
		handler = mux
		log.Printf("dramlockerd %q co-hosting result plane (%d entries, version %s)",
			name, store.Metrics().Entries, experiments.CacheVersion)
	}
	// Hot standby: replicate the primary's journal into this broker and
	// arm the promotion paths (/v2/promote, silence timeout)
	// before the listener serves, so a promote cannot race the mux.
	if bf.follow != "" {
		adv := bf.advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		fol := remote.NewFollower(b, bf.follow, remote.FollowerOptions{
			Client:        faultClient(faults),
			TakeoverAfter: bf.takeoverAfter,
			Name:          name,
			Advertise:     adv,
			Token:         bf.haToken,
		})
		bs.SetPromote(fol.Promote)
		go func() {
			if err := fol.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("dramlockerd %q follower loop: %v", name, err)
			}
		}()
		log.Printf("dramlockerd %q standby following %s (takeover-after %v, advertise %s)",
			name, bf.follow, bf.takeoverAfter, adv)
	}
	return serve(ctx, stop, ln, handler, faults, bs.Drain,
		fmt.Sprintf("dramlockerd %q brokering on %s (lease %v, proto %s)",
			name, ln.Addr(), cfg.LeaseTTL, remote.ProtoVersion),
		"dramlockerd: broker draining (no new submissions)")
}

// runPlane serves a standalone result plane on ln until a signal. The
// plane has no drain protocol — entries are immutable objects and every
// client degrades to local compute when it vanishes — so shutdown just
// stops the listener and seals the store.
func runPlane(ctx context.Context, stop context.CancelFunc, ln net.Listener, name string, pf planeFlags, faults *faultinject.Injector) error {
	store, err := resultplane.Open(pf.dir)
	if err != nil {
		return err
	}
	defer store.Close()
	return serve(ctx, stop, ln, resultplane.NewServer(store, name).Handler(), faults, nil,
		fmt.Sprintf("dramlockerd %q result plane on %s (%d entries, version %s, proto %s)",
			name, ln.Addr(), store.Metrics().Entries, experiments.CacheVersion, remote.ProtoVersion),
		"dramlockerd: result plane shutting down")
}

// faultClient is the HTTP client of every outbound caller — the pull
// worker, the follower and the plane client: nil (the caller's default)
// without a fault plan, else one that injects the plan's client.*
// faults.
func faultClient(faults *faultinject.Injector) *http.Client {
	if faults == nil {
		return nil
	}
	return &http.Client{Transport: &faultinject.Transport{Inj: faults}}
}

// planeExecutor stacks the plane-attached cache over the local
// executor: plane first, in-process cache second, compute last, with
// computed results written through and the plane's claim API keeping
// each key's computation single-flighted across the whole fleet.
func planeExecutor(reg *engine.Registry, name, addr string, faults *faultinject.Injector) engine.Executor {
	c := resultplane.NewClient(addr, experiments.CacheVersion)
	c.HTTPClient = faultClient(faults)
	cache := engine.NewCache()
	cache.SetRemote(&resultplane.EngineCache{C: c})
	return &engine.CachingExecutor{Exec: engine.NewNamedLocalExecutor(reg, name), Cache: cache}
}
