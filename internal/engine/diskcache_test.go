package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// countingRegistry registers n keyed jobs whose executions are tallied.
func countingRegistry(t *testing.T, n int, runs *int, mu *sync.Mutex) *Registry {
	t.Helper()
	reg := NewRegistry()
	for i := 0; i < n; i++ {
		i := i
		err := reg.Register(single(Job{
			Name: fmt.Sprintf("job%02d", i),
			Key:  fmt.Sprintf("job%02d@hash", i),
		}, func(context.Context) (Output, error) {
			mu.Lock()
			*runs++
			mu.Unlock()
			return Output{Text: fmt.Sprintf("out-%d", i), Data: map[string]any{"i": i}}, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestDiskCachePersistsAcrossProcesses simulates two processes by opening
// the same cache dir twice: the second run must serve everything from
// disk, computing nothing.
func TestDiskCachePersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0

	cold, err := OpenDiskCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := Run(countingRegistry(t, 5, &runs, &mu), Options{Workers: 2, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := coldRep.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if runs != 5 {
		t.Fatalf("cold run computed %d jobs, want 5", runs)
	}

	warm, err := OpenDiskCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Len() != 5 {
		t.Fatalf("warm cache loaded %d entries, want 5", warm.Len())
	}
	warmRep, err := Run(countingRegistry(t, 5, &runs, &mu), Options{Workers: 2, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if err := warmRep.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != 5 {
		t.Fatalf("warm run recomputed jobs: runs = %d, want 5", runs)
	}
	if warmRep.CachedCount() != 5 {
		t.Fatalf("warm run cached %d of 5", warmRep.CachedCount())
	}
	for i, r := range warmRep.Results {
		if r.Text != coldRep.Results[i].Text {
			t.Fatalf("%s: text diverged: %q vs %q", r.Name, r.Text, coldRep.Results[i].Text)
		}
	}
	// The JSON report must render replayed Data byte-identically (Data is
	// kept as raw JSON, preserving the original field order).
	coldJSON, err := coldRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warmRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	strip := func(b []byte) string {
		var rep map[string]any
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		// durations/wall/cached differ by construction; compare data+text.
		var keep []string
		for _, r := range rep["results"].([]any) {
			m := r.(map[string]any)
			keep = append(keep, fmt.Sprint(m["name"], m["text"], m["data"]))
		}
		return strings.Join(keep, "\n")
	}
	if strip(coldJSON) != strip(warmJSON) {
		t.Fatalf("JSON payloads diverged:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
}

// TestDiskCacheVersionStampInvalidates: entries written under one code
// version must be invisible to a cache opened under another.
func TestDiskCacheVersionStampInvalidates(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0

	c1, err := OpenDiskCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(countingRegistry(t, 3, &runs, &mu), Options{Cache: c1}); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := OpenDiskCache(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 0 {
		t.Fatalf("v2 cache loaded %d stale v1 entries", c2.Len())
	}
	rep, err := Run(countingRegistry(t, 3, &runs, &mu), Options{Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CachedCount() != 0 || runs != 6 {
		t.Fatalf("stale entries replayed: cached=%d runs=%d", rep.CachedCount(), runs)
	}
}

// TestDiskCacheCorruptionIsAMiss is the corruption regression: truncated
// and garbage cache files must degrade to misses, never to errors.
func TestDiskCacheCorruptionIsAMiss(t *testing.T) {
	var mu sync.Mutex

	seedDir := func(t *testing.T) string {
		dir := t.TempDir()
		runs := 0
		c, err := OpenDiskCache(dir, "v1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(countingRegistry(t, 4, &runs, &mu), Options{Cache: c}); err != nil {
			t.Fatal(err)
		}
		c.Close()
		return dir
	}
	path := func(dir string) string { return filepath.Join(dir, "results.jsonl") }

	cases := []struct {
		desc     string
		corrupt  func(t *testing.T, p string)
		wantWarm int // entries that must survive
	}{
		{
			desc: "truncated mid-line tail",
			corrupt: func(t *testing.T, p string) {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, b[:len(b)-len(b)/3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantWarm: 1, // at least the first full lines survive
		},
		{
			desc: "pure garbage file",
			corrupt: func(t *testing.T, p string) {
				if err := os.WriteFile(p, []byte("\x00\xff not json at all\n{half"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantWarm: 0,
		},
		{
			desc: "garbage lines interleaved with good ones",
			corrupt: func(t *testing.T, p string) {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(string(b)), "\n")
				var out []string
				for i, l := range lines {
					out = append(out, l)
					if i == 0 {
						out = append(out, `{"version":`, "** binary junk **")
					}
				}
				if err := os.WriteFile(p, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantWarm: 4,
		},
	}
	for _, c := range cases {
		t.Run(c.desc, func(t *testing.T) {
			dir := seedDir(t)
			c.corrupt(t, path(dir))
			cache, err := OpenDiskCache(dir, "v1")
			if err != nil {
				t.Fatalf("corrupt cache must open cleanly: %v", err)
			}
			defer cache.Close()
			if cache.Len() < c.wantWarm {
				t.Fatalf("loaded %d entries, want >= %d", cache.Len(), c.wantWarm)
			}
			// The damaged dir must still work end to end: misses recompute
			// and the run succeeds.
			runs := 0
			rep, err := Run(countingRegistry(t, 4, &runs, &mu), Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("run over corrupt cache failed: %v", err)
			}
			if rep.CachedCount()+runs != 4 {
				t.Fatalf("cached %d + computed %d != 4", rep.CachedCount(), runs)
			}
		})
	}
}

// TestDiskCacheShardedWarmRun: a warm process replays every shard of a
// sharded job from disk and runs only the merge again.
func TestDiskCacheShardedWarmRun(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0
	build := func() *Registry {
		reg := NewRegistry()
		var shards []Shard
		for i := 0; i < 3; i++ {
			i := i
			shards = append(shards, Shard{
				Name: fmt.Sprintf("s%d", i),
				Run: func(context.Context) (Output, error) {
					mu.Lock()
					runs++
					mu.Unlock()
					return Output{Data: []int{i, i * i}}, nil
				},
			})
		}
		err := reg.Register(Job{Name: "grid", Key: "grid@hash", Shards: shards, Merge: func(outs []Output) (Output, error) {
			var b strings.Builder
			for _, o := range outs {
				var v []int
				if err := DecodeData(o.Data, &v); err != nil {
					return Output{}, err
				}
				fmt.Fprintf(&b, "%v\n", v)
			}
			return Output{Text: b.String()}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}

	cold, err := OpenDiskCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := Run(build(), Options{Workers: 3, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := coldRep.Err(); err != nil {
		t.Fatal(err)
	}
	cold.Close()
	if runs != 3 {
		t.Fatalf("cold computed %d shards, want 3", runs)
	}

	warm, err := OpenDiskCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	// One entry per shard, none for the merged job.
	if warm.Len() != 3 {
		t.Fatalf("warm cache holds %d entries, want 3", warm.Len())
	}
	warmRep, err := Run(build(), Options{Workers: 3, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("warm run recomputed shards: %d", runs)
	}
	if !warmRep.Results[0].Cached {
		t.Fatal("warm sharded job must report cached")
	}
	if warmRep.Results[0].Text != coldRep.Results[0].Text {
		t.Fatalf("warm text diverged:\n%q\nvs\n%q", warmRep.Results[0].Text, coldRep.Results[0].Text)
	}
}

// TestDiskCacheOneLinePerUnit: over a disk cache, a cold run appends
// exactly one line per unit (shard), one-shard and sharded jobs alike,
// and a warm run appends none while every job reads Cached.
func TestDiskCacheOneLinePerUnit(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0
	build := func() *Registry {
		reg := countingRegistry(t, 3, &runs, &mu)
		if err := reg.Register(gridJob("grid", 4, "grid@hash")); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	const units = 3 + 4
	lines := func() int {
		b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(b), "\n")
	}
	for pass, want := range []struct{ lines, cached int }{{units, 0}, {units, 4}} {
		c, err := OpenDiskCache(dir, "v1")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(build(), Options{Workers: 3, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if got := lines(); got != want.lines {
			t.Fatalf("pass %d: results.jsonl holds %d lines, want %d (one per unit)", pass, got, want.lines)
		}
		if got := rep.CachedCount(); got != want.cached {
			t.Fatalf("pass %d: %d of %d jobs cached, want %d", pass, got, len(rep.Results), want.cached)
		}
	}
	if runs != 3 {
		t.Fatalf("one-shard jobs computed %d times over two passes, want 3", runs)
	}
}
