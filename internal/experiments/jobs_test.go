package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/overhead"
	"repro/internal/sim"
)

// runTiny runs one experiment at the tiny preset through the engine
// registry, the path every report takes, and decodes its payload into
// out.
func runTiny(t *testing.T, exp string, out any) engine.Result {
	t.Helper()
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		t.Fatal(err)
	}
	rep, err := engine.Run(reg, engine.Options{Filter: []string{"tiny/" + exp}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if err := engine.DecodeData(r.Data, out); err != nil {
		t.Fatal(err)
	}
	return r
}

// serialRows computes a grid's n points one after another, in grid
// order, with the per-point function its shards call.
func serialRows[T any](t *testing.T, n int, point func(i int) (T, error)) []T {
	t.Helper()
	rows := make([]T, 0, n)
	for i := 0; i < n; i++ {
		row, err := point(i)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return rows
}

// fig7aCurves computes the Fig. 7(a) curves in the fig7a grid's shard
// order: SHADOW at every paper threshold, then DRAM-Locker.
func fig7aCurves(t *testing.T, maxBFA, step int) []sim.Fig7aCurve {
	t.Helper()
	trhs := sim.PaperThresholds()
	return serialRows(t, len(trhs)+1, func(i int) (sim.Fig7aCurve, error) {
		if i == len(trhs) {
			return sim.LockerCurve(maxBFA, step)
		}
		return sim.ShadowCurve(trhs[i], maxBFA, step)
	})
}

// fig7bBars computes the Fig. 7(b) bars in the fig7b grid's shard order.
func fig7bBars(t *testing.T) []sim.Fig7bBar {
	t.Helper()
	trhs := sim.PaperThresholds()
	return serialRows(t, len(trhs), func(i int) (sim.Fig7bBar, error) {
		return sim.Fig7bBarAt(trhs[i])
	})
}

func TestRegisterJobsPopulatesRegistry(t *testing.T) {
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		t.Fatal(err)
	}
	if err := RegisterJobs(reg, Small()); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, preset := range []string{"tiny", "small"} {
		for _, exp := range JobNames() {
			if !names[preset+"/"+exp] {
				t.Fatalf("missing job %s/%s", preset, exp)
			}
		}
	}
	if reg.Len() != 2*len(JobNames()) {
		t.Fatalf("len = %d", reg.Len())
	}
	// Re-registering the same preset collides on names.
	if err := RegisterJobs(reg, Tiny()); err == nil {
		t.Fatal("duplicate registration must fail")
	}
}

// TestBuildRegistrySharedByCLIAndDaemon: the shared constructor resolves
// the same preset list to the same job set — names, shard layouts and
// cache keys — which is what lets a daemon validate a scheduler's tasks.
func TestBuildRegistrySharedByCLIAndDaemon(t *testing.T) {
	a, err := BuildRegistry([]string{"tiny", "small"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRegistry([]string{"tiny", "small", "tiny"}) // dupes ignored
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Len() != 2*len(JobNames()) {
		t.Fatalf("lens: %d vs %d", a.Len(), b.Len())
	}
	for _, name := range a.Names() {
		ja, _ := a.Get(name)
		jb, ok := b.Get(name)
		if !ok {
			t.Fatalf("job %s missing from second registry", name)
		}
		if ja.Key != jb.Key {
			t.Fatalf("%s: cache keys diverge: %q vs %q", name, ja.Key, jb.Key)
		}
		if len(ja.Shards) != len(jb.Shards) {
			t.Fatalf("%s: shard counts diverge: %d vs %d", name, len(ja.Shards), len(jb.Shards))
		}
	}
	if _, err := BuildRegistry(nil); err == nil {
		t.Fatal("empty preset list must fail")
	}
	if _, err := BuildRegistry([]string{"huge"}); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList(" tiny, ,small,,paper ")
	if fmt.Sprint(got) != fmt.Sprint([]string{"tiny", "small", "paper"}) {
		t.Fatalf("got %v", got)
	}
	if SplitList("") != nil {
		t.Fatal("empty input must yield nil")
	}
}

func TestJobTitlesCoverEveryJob(t *testing.T) {
	for _, exp := range JobNames() {
		if jobTitles[exp] == "" {
			t.Fatalf("no title for %q", exp)
		}
	}
}

func TestPresetHash(t *testing.T) {
	if Tiny().Hash() != Tiny().Hash() {
		t.Fatal("hash must be stable")
	}
	if Tiny().Hash() == Small().Hash() {
		t.Fatal("different presets must hash differently")
	}
	p := Tiny()
	p.TRH++
	if p.Hash() == Tiny().Hash() {
		t.Fatal("changing a knob must change the hash")
	}
}

func TestDefenseComparisonTiny(t *testing.T) {
	var rows []DefenseRow
	out := runTiny(t, "defense", &rows).Text
	if len(rows) != len(DefenseNames())+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Defense != "None" || !rows[0].Flipped {
		t.Fatalf("undefended campaign must flip the victim: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.Defense != "DRAM-Locker" || last.Flipped {
		t.Fatalf("DRAM-Locker must hold: %+v", last)
	}
	if last.Denied == 0 {
		t.Fatal("DRAM-Locker denied nothing")
	}
	for _, frag := range []string{"DRAM-Locker", "SHADOW", "flipped", "denied"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestEngineMatchesSerialExecution is the parallel-correctness check: the
// cheap model-free jobs run through the engine with one worker and with
// many, and both reports must render identically (modulo timing).
func TestEngineMatchesSerialExecution(t *testing.T) {
	filter := []string{"*/mc", "*/table1", "*/fig7a", "*/fig7b", "*/defense"}
	run := func(workers int) string {
		reg := engine.NewRegistry()
		if err := RegisterJobs(reg, Tiny()); err != nil {
			t.Fatal(err)
		}
		rep, err := engine.Run(reg, engine.Options{Workers: workers, Filter: filter})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rep.Results {
			b.WriteString(r.Name)
			b.WriteByte('\n')
			b.WriteString(r.Text)
		}
		return b.String()
	}
	serial := run(1)
	parallel := run(0) // NumCPU
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestPresetFreeJobsShareCache: experiments that ignore the preset carry
// preset-free cache keys, so a cached multi-preset run computes each once.
func TestPresetFreeJobsShareCache(t *testing.T) {
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		t.Fatal(err)
	}
	if err := RegisterJobs(reg, Small()); err != nil {
		t.Fatal(err)
	}
	rep, err := engine.Run(reg, engine.Options{
		Workers: 1, // serial, so the second preset's job sees the first's result
		Filter:  []string{"*/table1", "*/fig7b"},
		Cache:   engine.NewCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]engine.Result{}
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	for _, exp := range []string{"table1", "fig7b"} {
		first, second := byName["tiny/"+exp], byName["small/"+exp]
		if first.Cached {
			t.Fatalf("%s: first run must compute", first.Name)
		}
		if !second.Cached {
			t.Fatalf("%s: second preset must replay the cached result", second.Name)
		}
		if first.Text != second.Text {
			t.Fatalf("%s: cached replay diverged", exp)
		}
	}
	// Preset-dependent jobs must NOT share keys across presets.
	if Tiny().Hash() == Small().Hash() {
		t.Fatal("preset hashes collide")
	}
}

// TestShardedGridsMatchSerialMonoliths is the sharding acceptance check:
// every grid experiment run through the engine must render byte-identical
// to its per-point functions called serially in grid order and formatted
// directly, at a parallel worker count.
func TestShardedGridsMatchSerialMonoliths(t *testing.T) {
	p := Tiny()

	mc := serialRows(t, len(circuit.PaperVariations()), func(i int) (MonteCarloRow, error) {
		return MonteCarloRowFor(p, i)
	})
	frameworks := overhead.Table1Frameworks()
	table1 := serialRows(t, len(frameworks), func(i int) (overhead.Report, error) {
		return overhead.Table1Report(frameworks[i])
	})
	names := DefenseGridNames()
	defense := serialRows(t, len(names), func(i int) (DefenseRow, error) {
		return DefenseRowFor(p, names[i])
	})
	want := map[string]string{
		"tiny/mc":      FormatMonteCarlo(mc),
		"tiny/table1":  FormatTable1(table1),
		"tiny/fig7a":   FormatFig7a(fig7aCurves(t, fig7aMaxBFA, fig7aStep)),
		"tiny/fig7b":   FormatFig7b(fig7bBars(t)),
		"tiny/defense": FormatDefenseComparison(p, defense),
	}

	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, p); err != nil {
		t.Fatal(err)
	}
	rep, err := engine.Run(reg, engine.Options{
		Workers: 8,
		Filter:  []string{"*/mc", "*/table1", "*/fig7a", "*/fig7b", "*/defense"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if want[r.Name] == "" {
			t.Fatalf("unexpected result %s", r.Name)
		}
		if r.Text != want[r.Name] {
			t.Errorf("%s: sharded output diverged from the serial per-point assembly:\n--- sharded ---\n%s\n--- serial ---\n%s",
				r.Name, r.Text, want[r.Name])
		}
	}
}

// TestGridJobsAreSharded pins the grid structure: the sharded experiments
// must expose one shard per curve / grid point / table row.
func TestGridJobsAreSharded(t *testing.T) {
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		t.Fatal(err)
	}
	wantShards := map[string]int{
		"tiny/mc":      3,  // variation points
		"tiny/table1":  10, // frameworks
		"tiny/fig7a":   5,  // 4 SHADOW curves + DRAM-Locker
		"tiny/fig7b":   4,  // thresholds
		"tiny/defense": 10, // 9 baselines + DRAM-Locker
		"tiny/table2":  7,  // defended models
	}
	for _, j := range reg.Jobs() {
		if n, ok := wantShards[j.Name]; ok {
			if len(j.Shards) != n {
				t.Errorf("%s: %d shards, want %d", j.Name, len(j.Shards), n)
			}
		} else if len(j.Shards) != 0 {
			t.Errorf("%s: unexpectedly sharded (%d shards)", j.Name, len(j.Shards))
		}
	}
}

// TestWarmDiskCacheServesEveryShard is the persistence acceptance check:
// a second run over a fresh cache opened on the same directory — a new
// process, effectively — must replay every job from disk, byte-identical,
// with 100% cache hits.
func TestWarmDiskCacheServesEveryShard(t *testing.T) {
	dir := t.TempDir()
	filter := []string{"*/mc", "*/table1", "*/fig7a", "*/fig7b", "*/defense"}
	pass := func(requireAllCached bool) *engine.Report {
		t.Helper()
		cache, err := engine.OpenDiskCache(dir, CacheVersion)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		reg := engine.NewRegistry()
		if err := RegisterJobs(reg, Tiny()); err != nil {
			t.Fatal(err)
		}
		rep, err := engine.Run(reg, engine.Options{Workers: 4, Filter: filter, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if requireAllCached && rep.CachedCount() != len(rep.Results) {
			t.Fatalf("warm run served %d of %d jobs from cache", rep.CachedCount(), len(rep.Results))
		}
		return rep
	}
	cold := pass(false)
	if cold.CachedCount() != 0 {
		t.Fatalf("cold run claims %d cached jobs", cold.CachedCount())
	}
	warm := pass(true)
	for i, r := range warm.Results {
		if r.Text != cold.Results[i].Text {
			t.Errorf("%s: warm replay diverged:\n--- warm ---\n%s\n--- cold ---\n%s",
				r.Name, r.Text, cold.Results[i].Text)
		}
	}
}

// TestJobErrorSurfacesInReport wires a preset that cannot train (zero
// test split would be caught earlier, so use an unknown-arch shim) — here
// we simply check that a failing job run through the experiments registry
// shape reports rather than aborts the sibling jobs.
func TestJobErrorSurfacesInReport(t *testing.T) {
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(engine.Job{
		Name: "tiny/broken",
		Run: func(engine.Context) (engine.Output, error) {
			return engine.Output{}, errTestBroken
		},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := engine.Run(reg, engine.Options{Filter: []string{"tiny/table1", "tiny/broken"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 {
		t.Fatalf("failed = %d", rep.Failed())
	}
	if rep.Results[0].Failed() {
		t.Fatalf("table1 must succeed: %+v", rep.Results[0])
	}
	if !strings.Contains(rep.Err().Error(), "tiny/broken") {
		t.Fatalf("joined error: %v", rep.Err())
	}
}

var errTestBroken = errBroken{}

type errBroken struct{}

func (errBroken) Error() string { return "synthetic failure" }
