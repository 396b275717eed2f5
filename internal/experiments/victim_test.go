package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
)

// shrunkTiny is the tiny preset cut to one epoch over a few dozen
// images: every code path of a victim and its attacks, at a fraction of
// the cost.
func shrunkTiny() Preset {
	p := Tiny()
	p.Name = "shrunk"
	p.Epochs = 1
	p.TrainN, p.TestN, p.EvalN, p.AttackBatch, p.AttackIters = 48, 24, 24, 8, 4
	return p
}

// memoSpecs are the victims the resnet-suite jobs (fig8a, fig8pta, perf,
// table2) and fig1a/fig8b train.
func memoSpecs() []VictimSpec {
	specs := []VictimSpec{standardVictim(ArchVGG11, 100)}
	for _, m := range Table2Models(DefaultTable2Config(Tiny())) {
		dup := false
		for _, s := range specs {
			dup = dup || s == m.Victim
		}
		if !dup {
			specs = append(specs, m.Victim)
		}
	}
	return specs
}

// trainingCounter returns a context whose progress reporter counts
// finished trainings (terminal "train" heartbeats).
func trainingCounter(ctx context.Context) (context.Context, *atomic.Int32) {
	var n atomic.Int32
	return engine.WithProgress(ctx, func(stage string, done, total int) {
		if stage == "train" && total > 0 && done == total {
			n.Add(1)
		}
	}), &n
}

// sameVictim fails unless b equals a bit for bit: float parameters,
// BatchNorm statistics, quantized weights and scales, clean accuracy and
// the attack batch.
func sameVictim(t *testing.T, what string, a, b *Victim) {
	t.Helper()
	if a.Arch != b.Arch || a.Classes != b.Classes || a.CleanAcc != b.CleanAcc {
		t.Fatalf("%s: %s/%d acc %v, want %s/%d acc %v", what, b.Arch, b.Classes, b.CleanAcc, a.Arch, a.Classes, a.CleanAcc)
	}
	pa, pb := a.Net.Params(), b.Net.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d params, want %d", what, len(pb), len(pa))
	}
	for i := range pa {
		for j, w := range pa[i].W.Data {
			if math.Float32bits(w) != math.Float32bits(pb[i].W.Data[j]) {
				t.Fatalf("%s: param %s[%d] = %v, want %v", what, pa[i].Name, j, pb[i].W.Data[j], w)
			}
		}
	}
	ba, bb := a.Net.BatchNorms(), b.Net.BatchNorms()
	for i := range ba {
		for c := range ba[i].RunningMean {
			if math.Float64bits(ba[i].RunningMean[c]) != math.Float64bits(bb[i].RunningMean[c]) ||
				math.Float64bits(ba[i].RunningVar[c]) != math.Float64bits(bb[i].RunningVar[c]) {
				t.Fatalf("%s: BatchNorm %s channel %d statistics differ", what, ba[i].LayerName, c)
			}
		}
	}
	qa, qb := a.QM.Params, b.QM.Params
	if len(qa) != len(qb) || a.QM.Bits != b.QM.Bits {
		t.Fatalf("%s: quantized model shape differs", what)
	}
	for i := range qa {
		if math.Float32bits(qa[i].Scale) != math.Float32bits(qb[i].Scale) {
			t.Fatalf("%s: scale %d = %v, want %v", what, i, qb[i].Scale, qa[i].Scale)
		}
		for j, q := range qa[i].Q {
			if qb[i].Q[j] != q {
				t.Fatalf("%s: Q[%d][%d] = %d, want %d", what, i, j, qb[i].Q[j], q)
			}
		}
	}
	if fmt.Sprint(a.AttackBatch.Y) != fmt.Sprint(b.AttackBatch.Y) || fmt.Sprint(a.AttackBatch.X.Data) != fmt.Sprint(b.AttackBatch.X.Data) {
		t.Fatalf("%s: attack batch differs", what)
	}
}

// TestVictimMemoHitMatchesFreshTraining: for every victim the model jobs
// train, the memo's training and a later hit both equal a fresh
// TrainVictim bit for bit.
func TestVictimMemoHitMatchesFreshTraining(t *testing.T) {
	p := shrunkTiny()
	ctx := context.Background()
	for _, s := range memoSpecs() {
		t.Run(fmt.Sprintf("%s-%d-bits%d-x%g-l%g", s.Arch, s.Classes, s.Bits, s.Width, s.ClusteringLambda), func(t *testing.T) {
			fresh, err := TrainVictim(ctx, p, s)
			if err != nil {
				t.Fatal(err)
			}
			m := newVictimMemo(p)
			owner, err := m.victim(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := m.victim(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			sameVictim(t, "owner", fresh, owner)
			sameVictim(t, "hit", fresh, hit)
		})
	}
}

// TestVictimMemoCopiesAreIndependent: attacks mutate weights in place,
// so flipping a bit in one copy must leave every other copy — and what
// the memo hands out later — unchanged.
func TestVictimMemoCopiesAreIndependent(t *testing.T) {
	p := shrunkTiny()
	ctx := context.Background()
	s := standardVictim(ArchResNet20, 10)
	want, err := TrainVictim(ctx, p, s)
	if err != nil {
		t.Fatal(err)
	}
	m := newVictimMemo(p)
	var copies []*Victim
	for range 3 {
		v, err := m.victim(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		copies = append(copies, v)
	}
	owner, first, second := copies[0], copies[1], copies[2]
	before := first.QM.Params[0].Get(0)
	owner.QM.FlipGlobal(0, 7)
	first.QM.FlipGlobal(0, 7)
	if first.QM.Params[0].Get(0) == before {
		t.Fatal("flip did not change the weight")
	}
	sameVictim(t, "second hit", want, second)
	later, err := m.victim(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	sameVictim(t, "hit after the flips", want, later)
}

// TestVictimMemoTrainsOnce: concurrent requests for one victim train it
// once, and every requester gets an equal copy.
func TestVictimMemoTrainsOnce(t *testing.T) {
	p := shrunkTiny()
	ctx, trained := trainingCounter(context.Background())
	s := standardVictim(ArchResNet20, 10)
	m := newVictimMemo(p)
	const n = 4
	got := make([]*Victim, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = m.victim(ctx, s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c := trained.Load(); c != 1 {
		t.Fatalf("%d concurrent requests trained %d times, want 1", n, c)
	}
	for i := 1; i < n; i++ {
		sameVictim(t, fmt.Sprintf("request %d", i), got[0], got[i])
		if got[i].QM == got[0].QM || got[i].Net == got[0].Net {
			t.Fatalf("request %d shares its model with request 0", i)
		}
	}
}

// waitWatch is a context that reports when its Done channel is first
// asked for: a memo request asks only while it waits on another's
// training.
type waitWatch struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitWatch) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestVictimMemoSurvivesCancelledOwner: when the training request's
// context is cancelled mid-training, the memo keeps nothing of it, and a
// request that was waiting on it trains the victim itself, correctly.
func TestVictimMemoSurvivesCancelledOwner(t *testing.T) {
	p := shrunkTiny()
	p.Epochs = 2 // cancel between the epochs
	s := standardVictim(ArchResNet20, 10)
	want, err := TrainVictim(context.Background(), p, s)
	if err != nil {
		t.Fatal(err)
	}
	m := newVictimMemo(p)

	// An owner cancelled after its first epoch leaves no entry.
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := m.victim(engine.WithProgress(ctx, func(string, int, int) { cancel() }), s); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner returned %v, want context.Canceled", err)
	}
	m.mu.Lock()
	left := len(m.entries)
	m.mu.Unlock()
	if left != 0 {
		t.Fatalf("memo kept %d entries after a cancelled training", left)
	}

	// A waiter outlives its owner's cancellation.
	wctx, waiterTrained := trainingCounter(context.Background())
	waiter := &waitWatch{Context: wctx, waiting: make(chan struct{})}
	var got *Victim
	var gotErr error
	waited := make(chan struct{})
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	onEpoch := func(string, int, int) {
		go func() {
			defer close(waited)
			got, gotErr = m.victim(waiter, s)
		}()
		select {
		case <-waiter.waiting:
		case <-time.After(30 * time.Second):
			t.Error("the second request never waited on the first")
		}
		cancel()
	}
	if _, err := m.victim(engine.WithProgress(ctx, onEpoch), s); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner returned %v, want context.Canceled", err)
	}
	<-waited
	if gotErr != nil {
		t.Fatalf("waiter failed with its owner: %v", gotErr)
	}
	if c := waiterTrained.Load(); c != 1 {
		t.Fatalf("waiter trained %d times, want 1", c)
	}
	sameVictim(t, "waiter", want, got)
}

// trainCountingExecutor runs tasks in process and counts the victims
// they train: the terminal "train" heartbeat of each training.
type trainCountingExecutor struct {
	local   *engine.LocalExecutor
	trained atomic.Int32
}

func (e *trainCountingExecutor) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	return e.local.ExecuteStream(ctx, spec, func(pr api.TaskProgress) {
		if pr.Stage == "train" && pr.Total > 0 && pr.Done == pr.Total {
			e.trained.Add(1)
		}
	})
}

// resnetSuite is the experiments dlbench's resnet-suite workload runs.
var resnetSuite = []string{"fig8a", "fig8pta", "perf", "table2"}

// runModelJobs runs experiments exps of a fresh registration of p and
// returns its report as comparable text, plus how many victims the run
// trained.
func runModelJobs(t *testing.T, p Preset, workers int, exps []string) (string, int) {
	t.Helper()
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, p); err != nil {
		t.Fatal(err)
	}
	exec := &trainCountingExecutor{local: engine.NewLocalExecutor(reg)}
	var filter []string
	for _, exp := range exps {
		filter = append(filter, p.Name+"/"+exp)
	}
	rep, err := engine.Run(reg, engine.Options{Workers: workers, Filter: filter, Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, r := range rep.Results {
		out += reportEntry(t, r.Name, r.Text, r.Data)
	}
	return out, int(exec.trained.Load())
}

// reportEntry renders one result's name, text and JSON payload.
func reportEntry(t *testing.T, name, text string, data any) string {
	t.Helper()
	b, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("== %s\n%s\n%s\n", name, text, b)
}

// TestVictimMemoPerRegistration: every registration owns its memo, so
// two jobs of one registration that attack the same victim train it
// once, and a second registration of the same preset trains it again.
func TestVictimMemoPerRegistration(t *testing.T) {
	p := shrunkTiny()
	exps := []string{"fig8pta", "perf"}
	first, n1 := runModelJobs(t, p, 2, exps)
	second, n2 := runModelJobs(t, p, 2, exps)
	if n1 != 1 || n2 != 1 {
		t.Fatalf("registrations trained %d and %d victims, want 1 each", n1, n2)
	}
	if first != second {
		t.Fatal("two registrations of one preset reported differently")
	}
}

// TestModelJobsMatchAcrossWorkers: the model-bearing jobs that share a
// victim through the memo report the same at one worker and at four,
// and the same as the experiment functions called without a memo, which
// train every victim they use.
func TestModelJobsMatchAcrossWorkers(t *testing.T) {
	p := shrunkTiny()
	ctx, trained := trainingCounter(context.Background())
	fig8a, err := Fig8(ctx, p, ArchResNet20, 10)
	if err != nil {
		t.Fatal(err)
	}
	pta, err := Fig8PTA(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := Perf(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTable2Config(p)
	var rows []Table2Row
	for _, m := range Table2Models(cfg) {
		row, err := m.Run(ctx, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	want := reportEntry(t, "shrunk/fig8a", FormatFig8(fig8a), fig8a) +
		reportEntry(t, "shrunk/fig8pta", FormatFig8PTA(pta), pta) +
		reportEntry(t, "shrunk/table2", FormatTable2(rows), rows) +
		reportEntry(t, "shrunk/perf", FormatPerf(perf), perf)
	if n := trained.Load(); n != 10 {
		t.Fatalf("memo-free reference trained %d victims, want 10", n)
	}

	for _, workers := range []int{1, 4} {
		got, n := runModelJobs(t, p, workers, resnetSuite)
		if n != 5 {
			t.Errorf("workers=%d: trained %d victims, want 5 (one per distinct spec)", workers, n)
		}
		if got != want {
			t.Fatalf("workers=%d: report differs from the memo-free reference:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}
