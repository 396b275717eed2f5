package queue

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// journalCensus renders what a broker replayed, in job-id order: each
// job's tenant, priority and state, each task's state, spec and result,
// and the fencing epoch and role. Lease bookkeeping (grants) is left
// out: compaction sheds it by design.
func journalCensus(b *Broker) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.jobs))
	for id := range b.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sb strings.Builder
	fmt.Fprintf(&sb, "epoch %d role %v primary %q\n", b.epoch, b.role, b.fencedPrimaryLocked())
	for _, id := range ids {
		j := b.jobs[id]
		fmt.Fprintf(&sb, "%q tenant %q prio %d %s done %d failed %d\n",
			id, j.tenant, j.priority, j.state(), j.done, j.failed)
		for _, t := range j.tasks {
			spec, _ := json.Marshal(t.spec)
			res, _ := json.Marshal(t.result)
			fmt.Fprintf(&sb, "  %d state %d spec %s result %s\n", t.idx, t.state, spec, res)
		}
	}
	return sb.String()
}

// FuzzJournalReplay feeds arbitrary bytes to the journal as its two
// segments, a sealed one (replayed strictly) and the active one
// (replayed leniently; empty input leaves only this one).
//
//   - Neither OpenJournal nor New panics, whatever the bytes.
//   - When OpenJournal accepts them, New folds the replayed state into a
//     snapshot segment; reopening that journal gives a broker with the
//     same jobs, task states, results and epoch.
//
// The seeds are the segments under internal/wal/testdata/parent (written
// by an older broker) and the torn and corrupt vectors of the journal
// tests. The journal's warnings about skipped lines are discarded: a
// fuzz worker that logs on every input fills the pipe its coordinator
// reads only at exit, and stalls.
func FuzzJournalReplay(f *testing.F) {
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	parent := filepath.Join("..", "wal", "testdata", "parent", "journal")
	sealed, err := os.ReadFile(filepath.Join(parent, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	active, err := os.ReadFile(filepath.Join(parent, segmentName(2)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed, active)
	good := `{"v":"qjournal1","kind":"submit","job":"j1","tasks":[{"proto":"dlexec2","job":"a","shard":0,"seed":7,"key":"a@hash"}]}` + "\n"
	torn := `{"v":"qjournal1","kind":"sub`
	for _, seed := range [][2]string{
		{good + torn, good},
		{"", good + torn},
		{"", good + "not json at all\n" + `{"v":"qjournal0","kind":"submit","job":"jX"}` + "\n" + torn},
		{good, `{"v":"qjournal1","kind":"grant","job":"j1","worker":"w1"}` + "\n" +
			`{"v":"qjournal1","kind":"cancel","job":"j1"}` + "\n"},
		{good, `{"v":"qjournal1","kind":"epoch","epoch":3,"fenced":true,"primary":"127.0.0.1:1"}` + "\n"},
		{"", `{"v":"qjournal1","kind":"done","job":"j1","task":5,"result":{"proto":"dlexec2"}}` + "\n"},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, sealed, active []byte) {
		dir := t.TempDir()
		if len(sealed) > 0 {
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), sealed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(2)), active, 0o644); err != nil {
			t.Fatal(err)
		}
		clk := newClock()
		jl, err := OpenJournal(dir, 0)
		if err != nil {
			return // a refused journal (a corrupt sealed segment) is a clean outcome
		}
		want := journalCensus(New(Config{Journal: jl, Now: clk.now}))
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}

		jl2, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatalf("the compacted journal no longer opens: %v", err)
		}
		defer jl2.Close()
		if got := journalCensus(New(Config{Journal: jl2, Now: clk.now})); got != want {
			t.Fatalf("replay of the compacted journal diverged\n got: %s\nwant: %s", got, want)
		}
	})
}
