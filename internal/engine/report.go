package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Result records one job's execution.
type Result struct {
	Name     string        `json:"name"`
	Title    string        `json:"title,omitempty"`
	Text     string        `json:"text,omitempty"`
	Data     any           `json:"data,omitempty"`
	Err      string        `json:"error,omitempty"`
	Seed     uint64        `json:"seed"`
	Duration time.Duration `json:"duration_ns"`
	// Cached is true when the result was replayed from the cache; the
	// Duration then is the original computation's, not the lookup's.
	Cached bool `json:"cached,omitempty"`
}

// Failed reports whether the job errored.
func (r Result) Failed() bool { return r.Err != "" }

// Report is the outcome of one Runner pass: every selected job's Result
// in registration order plus wall-clock accounting.
type Report struct {
	Workers int           `json:"workers"`
	Wall    time.Duration `json:"wall_ns"`
	Results []Result      `json:"results"`
}

// Err joins every job failure into one error (nil when all succeeded).
func (rep *Report) Err() error {
	var errs []error
	for _, r := range rep.Results {
		if r.Failed() {
			errs = append(errs, fmt.Errorf("%s: %s", r.Name, r.Err))
		}
	}
	return errors.Join(errs...)
}

// Failed counts failed jobs.
func (rep *Report) Failed() int {
	n := 0
	for _, r := range rep.Results {
		if r.Failed() {
			n++
		}
	}
	return n
}

// CachedCount counts results merged entirely from cached shards.
func (rep *Report) CachedCount() int {
	n := 0
	for _, r := range rep.Results {
		if r.Cached {
			n++
		}
	}
	return n
}

// JSON renders the report as indented JSON.
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// Text renders every job section followed by a timing summary, in
// registration order — identical regardless of worker count.
func (rep *Report) Text() string {
	var b strings.Builder
	for _, r := range rep.Results {
		cached := ""
		if r.Cached {
			cached = ", cached"
		}
		fmt.Fprintf(&b, "=== %s (%v%s) ===\n", r.Name, r.Duration.Round(time.Millisecond), cached)
		if r.Failed() {
			fmt.Fprintf(&b, "ERROR: %s\n\n", r.Err)
			continue
		}
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d jobs, %d failed, %d cached, %d workers, wall %v (cpu %v)\n",
		len(rep.Results), rep.Failed(), rep.CachedCount(), rep.Workers,
		rep.Wall.Round(time.Millisecond), rep.CPUTime().Round(time.Millisecond))
	return b.String()
}

// CPUTime sums per-job durations — the serial cost the worker pool
// amortised. Cached replays are excluded: their Duration records the
// original computation, which this run never paid for.
func (rep *Report) CPUTime() time.Duration {
	var total time.Duration
	for _, r := range rep.Results {
		if !r.Cached {
			total += r.Duration
		}
	}
	return total
}
