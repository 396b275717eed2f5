package wal_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/resultplane"
)

// TestParentStoresReload is the on-disk compatibility check. The store
// set under testdata/parent was written by the code before the three
// stores moved onto internal/wal: a broker journal (a sealed snapshot
// segment, an active segment ending in a torn done record, and
// journal.meta), a disk cache (results.jsonl with a stale-version
// generation and a torn tail) and a result-plane file (plane.jsonl
// after a conflicting PUT, an eviction rewrite, later appends and a
// torn tail). want.json is what that code reloaded from them; this
// code must reload the same broker state, cache contents and plane
// entries, and fold the journal into a byte-identical snapshot.
func TestParentStoresReload(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"journal", "cache", "plane"} {
		copyDir(t, filepath.Join("testdata", "parent", sub), filepath.Join(dir, sub))
	}
	d, err := dumpStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("reload of the parent-written stores diverged\n got: %s\nwant: %s", got, want)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// storeDump is what a reload of the store set yields: the broker's
// state, the disk cache's contents and, per plane key, the hex SHA-256
// of the entry bytes (which want.json recorded as the plane's ETag).
type storeDump struct {
	Jobs         map[string]string `json:"jobs"`
	Stats        brokerCensus      `json:"stats"`
	Replay       [4]int            `json:"replay"`
	Snapshot     string            `json:"snapshot"`
	CacheLen     int               `json:"cache_len"`
	Cache        map[string]string `json:"cache"`
	PlaneEntries int64             `json:"plane_entries"`
	Plane        map[string]string `json:"plane"`
}

// brokerCensus is the queue census and lifetime counters of
// api.BrokerMetrics under the field names want.json recorded them with.
type brokerCensus struct {
	Pending, Leased, Workers, Jobs                   int
	Submitted, Completed, Failed, Requeues           int
	Duplicates, DupCacheHits, RateLimited, PlaneHits int
}

// missExecutor fails every task, so a cache miss surfaces as an error.
type missExecutor struct{}

func (missExecutor) Execute(context.Context, api.TaskSpec) (api.TaskResult, error) {
	return api.TaskResult{}, errors.New("miss")
}

// fileKeys lists the "key" of every JSON record of a store file.
func fileKeys(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, line := range strings.Split(string(raw), "\n") {
		var rec struct {
			Key string `json:"key"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Key != "" {
			keys = append(keys, rec.Key)
		}
	}
	return keys, nil
}

// dumpStores reloads the journal, cache and plane under dir (a scratch
// copy: the journal compacts itself on open) and records what came back.
func dumpStores(dir string) (storeDump, error) {
	d := storeDump{Jobs: map[string]string{}, Cache: map[string]string{}, Plane: map[string]string{}}

	jdir := filepath.Join(dir, "journal")
	jl, err := queue.OpenJournal(jdir, 0)
	if err != nil {
		return d, err
	}
	b := queue.New(queue.Config{Journal: jl})
	for i := 1; i <= 30; i++ {
		id := fmt.Sprintf("j%d", i)
		if st, err := b.Status(id); err == nil {
			raw, _ := json.Marshal(st)
			d.Jobs[id] = string(raw)
		}
	}
	m := b.Metrics()
	d.Stats = brokerCensus{
		Pending: m.Pending, Leased: m.Leased, Workers: m.Workers, Jobs: m.Jobs,
		Submitted: m.Submitted, Completed: m.Completed, Failed: m.Failed,
		Requeues: m.Requeues, Duplicates: m.Duplicates,
		DupCacheHits: m.DupCacheHits, RateLimited: m.RateLimited,
		PlaneHits: m.PlaneHits,
	}
	jm := m.Journal
	d.Replay = [4]int{jm.ReplayedJobs, jm.ReplayedTasks, jm.Requeued, jm.Skipped}
	snap, err := os.ReadFile(filepath.Join(jdir, "journal-000001.jsonl"))
	if err != nil {
		return d, err
	}
	d.Snapshot = string(snap)
	if err := jl.Close(); err != nil {
		return d, err
	}

	cdir := filepath.Join(dir, "cache")
	keys, err := fileKeys(filepath.Join(cdir, "results.jsonl"))
	if err != nil {
		return d, err
	}
	c, err := engine.OpenDiskCache(cdir, "v1")
	if err != nil {
		return d, err
	}
	d.CacheLen = c.Len()
	ce := &engine.CachingExecutor{Exec: missExecutor{}, Cache: c}
	for _, key := range keys {
		// Shard -1 is the index want.json's replies echo: the parent
		// recorded them under its whole-job index. The caching executor
		// answers a hit without resolving the shard.
		spec := api.TaskSpec{Proto: api.Version, Job: "compat", Shard: -1, Key: key, CacheKey: key}
		if tr, err := ce.Execute(context.Background(), spec); err != nil {
			d.Cache[key] = "miss"
		} else {
			raw, _ := json.Marshal(tr)
			d.Cache[key] = string(raw)
		}
	}
	if err := c.Close(); err != nil {
		return d, err
	}

	pdir := filepath.Join(dir, "plane")
	if keys, err = fileKeys(filepath.Join(pdir, "plane.jsonl")); err != nil {
		return d, err
	}
	s, err := resultplane.Open(pdir)
	if err != nil {
		return d, err
	}
	d.PlaneEntries = s.Metrics().Entries
	for _, key := range keys {
		if data, ok := s.Get(key); ok {
			sum := sha256.Sum256(data)
			d.Plane[key] = hex.EncodeToString(sum[:])
		} else {
			d.Plane[key] = "miss"
		}
	}
	return d, s.Close()
}
