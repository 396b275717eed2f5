package queue

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
)

// rotatingJournal opens a journal with a tiny byte budget so a handful
// of submissions forces rotations.
func rotatingJournal(t *testing.T, dir string, maxBytes int64) *Journal {
	t.Helper()
	jl, err := OpenJournal(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// waitCompacted waits for in-flight background compactions to settle:
// metrics stop counting claimed segments once compactSegments releases
// them.
func waitCompacted(t *testing.T, jl *Journal) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		jl.mu.Lock()
		idle := len(jl.claimed) == 0
		jl.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background compaction never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalRotationUnderConcurrentSubmission hammers a journaled
// broker from several goroutines with a byte budget small enough to
// rotate mid-batch, then restarts over whatever the (possibly
// mid-compaction) directory holds and requires the identical backlog.
func TestJournalRotationUnderConcurrentSubmission(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	jl := rotatingJournal(t, dir, 2048)
	b1 := newBroker(t, Config{Journal: jl}, clk)

	const writers, jobsPer = 4, 25
	var wg sync.WaitGroup
	ids := make([][]string, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for k := 0; k < jobsPer; k++ {
				id, err := submitOne(b1, api.JobSubmit{
					Proto: api.Version,
					Tasks: []api.TaskSpec{spec(fmt.Sprintf("w%d-%d", wi, k), 0)},
				})
				if err != nil {
					t.Errorf("writer %d: %v", wi, err)
					return
				}
				ids[wi] = append(ids[wi], id)
			}
		}(wi)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitCompacted(t, jl)
	m1 := jl.metrics()
	if m1.Rotations == 0 {
		t.Fatalf("100 jobs under a 2 KiB budget never rotated: %+v", m1)
	}
	if m1.Compactions == 0 {
		t.Fatalf("rotations without background compaction: %+v", m1)
	}

	// The successor — replaying snapshot + deltas across segments — must
	// serve every submitted job, still queued, no extras. Its startup
	// compaction folds whatever generation 1 left (sealed segments only
	// get claimed on the next rotation, so a few may still be waiting).
	jl2 := rotatingJournal(t, dir, 2048)
	b2 := newBroker(t, Config{Journal: jl2}, clk)
	if m := jl2.metrics(); m.Segments != 2 {
		t.Fatalf("successor settles at %d segments, want 2 (snapshot + active)", m.Segments)
	}
	total := 0
	for _, w := range ids {
		for _, id := range w {
			st, err := b2.Status(id)
			if err != nil || st.State != api.JobQueued || st.Total != 1 {
				t.Fatalf("job %s after rotated replay: %+v %v", id, st, err)
			}
			total++
		}
	}
	if total != writers*jobsPer {
		t.Fatalf("tracked %d ids, want %d", total, writers*jobsPer)
	}
	if m := b2.Metrics(); m.Jobs != writers*jobsPer {
		t.Fatalf("successor carries %d jobs, want %d", m.Jobs, writers*jobsPer)
	}
}

// TestJournalReplayAcrossThreeSegments: a hand-built three-segment
// directory (submit / progress / cancel+submit spread across files)
// replays in segment order to the merged state — and a fourth broker
// generation over the compacted result agrees.
func TestJournalReplayAcrossThreeSegments(t *testing.T) {
	dir := t.TempDir()
	line := func(e journalEntry) string {
		e.V = journalFormatVersion
		return jsonLine(t, e)
	}
	seg := func(n int, lines ...string) {
		if err := os.WriteFile(filepath.Join(dir, segmentName(n)),
			[]byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resA := resultFor(spec("a", 0), "seg2")
	seg(1,
		line(journalEntry{Kind: entrySubmit, Job: "j1", Tasks: []api.TaskSpec{spec("a", 0), spec("a", 1)}}),
		line(journalEntry{Kind: entrySubmit, Job: "j2", Tasks: []api.TaskSpec{spec("b", 0)}}),
	)
	seg(2,
		line(journalEntry{Kind: entryDone, Job: "j1", Task: 0, Result: &resA}),
		line(journalEntry{Kind: entryGrant, Job: "j1", Task: 1, Worker: "w"}),
	)
	seg(3,
		line(journalEntry{Kind: entryCancel, Job: "j2"}),
		line(journalEntry{Kind: entrySubmit, Job: "j3", Tasks: []api.TaskSpec{spec("c", 0)}}),
	)

	clk := newClock()
	b := newBroker(t, Config{Journal: rotatingJournal(t, dir, 0)}, clk)
	st, err := b.Status("j1")
	if err != nil || st.State != api.JobRunning || st.Done != 1 {
		t.Fatalf("j1: %+v %v, want running with 1 done", st, err)
	}
	if st, err = b.Status("j2"); err != nil || st.State != api.JobCanceled {
		t.Fatalf("j2: %+v %v, want canceled (cancel lives two segments after the submit)", st, err)
	}
	if st, err = b.Status("j3"); err != nil || st.State != api.JobQueued {
		t.Fatalf("j3: %+v %v, want queued", st, err)
	}
	m := b.Metrics()
	if m.Journal.ReplayedJobs != 3 || m.Journal.Requeued != 1 {
		t.Fatalf("replay metrics %+v, want 3 jobs / 1 requeued", *m.Journal)
	}
	// Finish the backlog; j1's reply must carry the middle segment's
	// replayed result verbatim alongside the fresh one.
	w := hello(t, b, "w1")
	for _, l := range poll(t, b, w, 4) {
		done(t, b, w, l, "fresh")
	}
	if st, err = b.Status("j1"); err != nil || st.State != api.JobDone {
		t.Fatalf("j1 after finishing: %+v %v", st, err)
	}
	if got := st.Results[0]; got.Text != "seg2" {
		t.Fatalf("j1 result from middle segment lost: %+v", got)
	}

	// Startup folded the three segments into one snapshot; a second
	// generation replays snapshot + the first generation's deltas to the
	// same state.
	b2 := newBroker(t, Config{Journal: rotatingJournal(t, dir, 0)}, clk)
	if st, err = b2.Status("j1"); err != nil || st.State != api.JobDone || st.Results[0].Text != "seg2" {
		t.Fatalf("j1 after compacted replay: %+v %v", st, err)
	}
	if st, err = b2.Status("j2"); err != nil || st.State != api.JobCanceled {
		t.Fatalf("j2 after compacted replay: %+v %v", st, err)
	}
	if st, err = b2.Status("j3"); err != nil || st.State != api.JobDone {
		t.Fatalf("j3 after compacted replay: %+v %v", st, err)
	}
}

// TestJournalCorruptMiddleSegmentFailsLoudly: a torn line is forgiven
// only on the final segment's tail. The same damage in a sealed middle
// segment means history was rewritten — OpenJournal must refuse.
func TestJournalCorruptMiddleSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	good := jsonLine(t, journalEntry{
		V: journalFormatVersion, Kind: entrySubmit, Job: "j1",
		Tasks: []api.TaskSpec{spec("a", 0)},
	})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)),
		[]byte(good+`{"v":"qjournal1","kind":"sub`), 0o644); err != nil { // torn tail, sealed
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, 0); err == nil || !strings.Contains(err.Error(), "segment 1 corrupt") {
		t.Fatalf("corrupt sealed segment opened anyway: %v", err)
	}

	// The identical tear on the *final* segment stays forgiving.
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)),
		[]byte(good+`{"v":"qjournal1","kind":"sub`), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatalf("torn active tail must not refuse startup: %v", err)
	}
	defer jl.Close()
	if got := len(jl.load()); got != 1 {
		t.Fatalf("loaded %d entries, want the 1 intact line", got)
	}
	if m := jl.metrics(); m.Skipped != 1 {
		t.Fatalf("skipped %d, want 1", m.Skipped)
	}
}

// TestJournalLegacyFileAdopted: a pre-segmentation journal.jsonl is
// renamed into segment 1 and replays as before.
func TestJournalLegacyFileAdopted(t *testing.T) {
	dir := t.TempDir()
	entry := jsonLine(t, journalEntry{
		V: journalFormatVersion, Kind: entrySubmit, Job: "j1",
		Tasks: []api.TaskSpec{spec("a", 0)},
	})
	if err := os.WriteFile(filepath.Join(dir, legacyJournalFile), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	b := newBroker(t, Config{Journal: rotatingJournal(t, dir, 0)}, newClock())
	if st, err := b.Status("j1"); err != nil || st.State != api.JobQueued {
		t.Fatalf("legacy job after adoption: %+v %v", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyJournalFile)); !os.IsNotExist(err) {
		t.Fatalf("legacy file still present: %v", err)
	}
}

// TestJournalTornWriteInjection: the fault-injection hook tears exactly
// one done record mid-line; the next generation replays the torn tail
// leniently and hands the task out again (re-execution, not data loss).
func TestJournalTornWriteInjection(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	jl := rotatingJournal(t, dir, 0)
	plan := faultinject.Plan{Rules: []faultinject.Rule{
		{Point: "journal.append.done", Kind: faultinject.KindTorn, Count: 1},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	jl.SetFaults(faultinject.New(&plan))
	b1 := newBroker(t, Config{Journal: jl}, clk)

	id := submit(t, b1, "", 0, spec("a", 0))
	w := hello(t, b1, "w1")
	leases := poll(t, b1, w, 1)
	if len(leases) != 1 {
		t.Fatalf("want 1 lease, got %d", len(leases))
	}
	done(t, b1, w, leases[0], "torn-away")
	if st, _ := b1.Status(id); st.State != api.JobDone {
		t.Fatalf("pre-crash broker state: %+v", st)
	}

	b2 := newBroker(t, Config{Journal: rotatingJournal(t, dir, 0)}, clk)
	st, err := b2.Status(id)
	if err != nil || st.State != api.JobQueued {
		t.Fatalf("after torn done record: %+v %v, want the task queued again", st, err)
	}
	if m := b2.Metrics(); m.Journal.Skipped != 1 {
		t.Fatalf("skipped %d, want exactly the 1 torn line", m.Journal.Skipped)
	}
}

// TestJournalRotationFsyncsUnsyncedTail: sealing a segment must fsync
// it first. Grants are the unsynced tier, so a rotation driven purely
// by grant appends would otherwise seal page-cache-only records into a
// segment that strict replay later refuses if a power cut tears it.
func TestJournalRotationFsyncsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	jl := rotatingJournal(t, dir, 256)
	rotated := false
	for i := 0; i < 100 && !rotated; i++ {
		rotated = jl.append(journalEntry{Kind: entryGrant, Job: "j1", Task: i, Worker: "w"}, false)
	}
	if !rotated {
		t.Fatal("100 grants under a 256-byte budget never rotated")
	}
	m := jl.metrics()
	if m.Rotations != 1 {
		t.Fatalf("rotations = %d, want 1", m.Rotations)
	}
	if m.Fsyncs == 0 {
		t.Fatalf("sealed a segment of unsynced appends without an fsync: %+v", m)
	}
}

// TestJournalLegacyConflictRefusesStartup: a directory holding both a
// pre-segmentation journal.jsonl and segment files is ambiguous
// history; OpenJournal must refuse rather than rename the legacy file
// over an existing segment.
func TestJournalLegacyConflictRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	segLine := jsonLine(t, journalEntry{
		V: journalFormatVersion, Kind: entrySubmit, Job: "jseg",
		Tasks: []api.TaskSpec{spec("a", 0)},
	})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(segLine), 0o644); err != nil {
		t.Fatal(err)
	}
	oldLine := jsonLine(t, journalEntry{
		V: journalFormatVersion, Kind: entrySubmit, Job: "jold",
		Tasks: []api.TaskSpec{spec("b", 0)},
	})
	if err := os.WriteFile(filepath.Join(dir, legacyJournalFile), []byte(oldLine), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, 0); err == nil || !strings.Contains(err.Error(), legacyJournalFile) {
		t.Fatalf("legacy/segment conflict opened anyway: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil || !strings.Contains(string(raw), "jseg") {
		t.Fatalf("segment 1 clobbered by refused adoption: %q %v", raw, err)
	}
}

// TestJournalStaleTmpRemovedAtStartup: a compaction that died between
// Create and Rename leaves a .tmp the next generation must sweep.
func TestJournalStaleTmpRemovedAtStartup(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, segmentName(1)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale compaction tmp survived startup: %v", err)
	}
}

// jsonLine marshals one journal entry the way append would.
func jsonLine(t *testing.T, e journalEntry) string {
	t.Helper()
	buf, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf) + "\n"
}
