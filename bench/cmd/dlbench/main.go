// Command dlbench is the repository's benchmark: it runs the DRAM-Locker
// reproduction's experiments and its job-queue service on fixed
// workloads, checks every output, and reports end-to-end and per-layer
// metrics. See bench/README.md for the workloads and metrics.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	dlbench --workload resnet-suite --seed 1 --seconds 10 --trace 0
//	dlbench --workload all --append bench/results/SET.json
//	dlbench compare BASE.json HEAD.json
//
// Each workload runs in a child process of its own. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics untraced and the per-layer
// metrics with --trace 1. The exit code is non-zero when any output
// check failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// childDeadline bounds one workload's child process.
const childDeadline = 170 * time.Second

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	golden   string
	// setupOnly makes a child exit once the workload is set up.
	setupOnly bool
}

// runResult is one workload run: what the child measured and checked.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Passes    int      `json:"passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
	// Digests fingerprints each compute job's result ("<job>@<preset
	// seed>"), in the form bench/golden.json pins them.
	Digests map[string]string `json:"digests,omitempty"`
}

// resultsFile is the format of results.json and of the run sets that
// compare reads.
type resultsFile struct {
	Runs []runResult `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&cfg.seed, "seed", experiments.Tiny().Seed, "workload seed; pass 0 of a compute workload runs the tiny preset at this seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long each workload measures (a pass that starts in time finishes)")
	traceFlag := fs.Int("trace", 0, "1: rerun with spans at every layer boundary and report the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/out", "directory for results.json, traces and scratch files")
	fs.StringVar(&cfg.golden, "golden", "bench/golden.json", "pinned digests of compute jobs")
	appendTo := fs.String("append", "", "also append this invocation's runs to this results file")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent)")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "with -child: set the workload up, signal ready and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "dlbench: --trace takes 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *child {
		res, err := runChild(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			return 1
		}
		if cfg.setupOnly {
			return 0
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var runs []runResult
	for _, name := range names {
		if _, err := workloadByName(name); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			return 2
		}
		c := cfg
		c.workload = name
		res, err := spawn(ctx, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %s: %v\n", name, err)
			return 1
		}
		printRun(stdout, res)
		runs = append(runs, res)
	}
	if err := writeResults(filepath.Join(cfg.out, "results.json"), runs, false); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 1
	}
	if *appendTo != "" {
		if err := writeResults(*appendTo, runs, true); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			return 1
		}
	}
	line, correct := summaryLine(runs)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process. Set-up time is measured
// from launching a child to its ready signal, so it covers the process
// start as well as building the workload. Extra children only set up,
// signal and exit, half of them before the measuring child and half
// after, so the set-ups sample the machine at both ends of the run;
// setup_s is the median over all of them.
func spawn(ctx context.Context, cfg config) (runResult, error) {
	var setups []float64
	setupOnly := func(n int) error {
		for range n {
			ready, _, err := launch(ctx, cfg, true)
			if err != nil {
				return fmt.Errorf("set-up child: %w", err)
			}
			setups = append(setups, ready.Seconds())
		}
		return nil
	}
	extra := 0
	if !cfg.trace {
		extra = setupReps - 1
	}
	if err := setupOnly(extra / 2); err != nil {
		return runResult{}, err
	}
	ready, out, err := launch(ctx, cfg, false)
	if err != nil {
		return runResult{}, err
	}
	if err := setupOnly(extra - extra/2); err != nil {
		return runResult{}, err
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return runResult{}, fmt.Errorf("child output: %w", err)
	}
	if !cfg.trace {
		setups = append(setups, ready.Seconds())
		res.Metrics.set("setup_s", "s", median(setups), len(setups))
	}
	if err := checkComplete(res); err != nil {
		res.Failed++
		res.Attempted++
		res.Failures = append(res.Failures, err.Error())
	}
	return res, nil
}

// launch runs one child process for cfg: with setupOnly it builds the
// workload, signals ready and exits. It returns the time from start to
// the child's ready signal and the child's standard output.
func launch(ctx context.Context, cfg config, setupOnly bool) (time.Duration, []byte, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childDeadline)
	defer cancel()
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-out", cfg.out, "-golden", cfg.golden}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	readyR, readyW, err := os.Pipe()
	if err != nil {
		return 0, nil, err
	}
	defer readyR.Close()
	cmd.ExtraFiles = []*os.File{readyW} // the child's fd 3
	start := time.Now()
	err = cmd.Start()
	readyW.Close()
	if err != nil {
		return 0, nil, err
	}
	readyAt := make(chan time.Duration, 1)
	go func() {
		var b [1]byte
		if n, _ := readyR.Read(b[:]); n == 1 {
			readyAt <- time.Since(start)
		}
		close(readyAt)
	}()
	if err := cmd.Wait(); err != nil {
		if ctx.Err() != nil {
			return 0, nil, fmt.Errorf("child stopped: %w", ctx.Err())
		}
		return 0, nil, err
	}
	ready, ok := <-readyAt
	if !ok {
		return 0, nil, errors.New("child exited without signalling ready")
	}
	return ready, out.Bytes(), nil
}

// signalReady tells the parent the workload is set up (fd 3 is the pipe
// launch passes).
func signalReady() {
	f := os.NewFile(3, "ready")
	if f == nil {
		return
	}
	f.Write([]byte{1})
	f.Close()
}

// checkComplete reports a catalogue metric the run did not measure.
func checkComplete(res runResult) error {
	want := endToEndMetrics
	if res.Trace {
		want = perLayerMetrics
	}
	var missing []error
	for _, d := range want {
		if _, ok := res.Metrics[d.name]; !ok {
			missing = append(missing, fmt.Errorf("metric %s was not measured", d.name))
		}
	}
	return errors.Join(missing...)
}

// summaryLine renders the final JSON line: for one workload its metrics
// by name, for several "<workload>/<metric>".
func summaryLine(runs []runResult) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, r := range runs {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(runs) > 1 {
				name = r.Workload + "/" + name
			}
			sum.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	b, err := json.Marshal(sum)
	if err != nil {
		panic(err) // plain strings and finite numbers
	}
	return string(b), sum.Correct
}

// printRun prints a run's metrics by name with their units.
func printRun(w io.Writer, r runResult) {
	kind := "end-to-end"
	cat := endToEndMetrics
	if r.Trace {
		kind, cat = "per-layer", perLayerMetrics
	}
	fmt.Fprintf(w, "%s  seed %d  %d passes  %d checked, %d failed  (%s)\n",
		r.Workload, r.Seed, r.Passes, r.Attempted, r.Failed, kind)
	for _, d := range cat {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		extra := ""
		if m.Source != "" {
			extra = "  [" + m.Source + "]"
		}
		if m.Note != "" {
			extra += "  " + m.Note
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d%s\n", d.name, m.Value, m.Unit, m.N, extra)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// writeResults writes runs to path, after the runs already there when
// appending.
func writeResults(path string, runs []runResult, appendRuns bool) error {
	var f resultsFile
	if appendRuns {
		old, err := readResults(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		f.Runs = old
	}
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}
