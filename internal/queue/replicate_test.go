package queue

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
)

// followerFor opens a journaled follower broker pointed (nominally) at
// the given primary address. The journal lives in its own temp dir so
// primary and standby never share a disk — exactly the deployment
// topology.
func followerFor(t *testing.T, clk *fakeClock, primary string) (*Broker, string) {
	t.Helper()
	dir := t.TempDir()
	b := newBroker(t, Config{
		Journal:     journalFor(t, dir),
		Follower:    true,
		PrimaryAddr: primary,
	}, clk)
	return b, dir
}

// replicateAll pumps the primary's journal stream into the follower
// until the cursor stops moving — the in-process equivalent of the
// /v2/replicate long-poll loop, minus HTTP.
func replicateAll(t *testing.T, pj *Journal, fb *Broker) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		gen, seg, off := fb.ReplCursor()
		ck := pj.ReadStream(gen, seg, off, 0)
		if len(ck.Data) == 0 && !ck.Restart {
			g2, s2, o2 := ck.Gen, ck.Seg, ck.Off
			if g2 == gen && s2 == seg && o2 == off {
				return
			}
		}
		if err := fb.ApplyReplicated(ck); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
	}
	t.Fatal("replication never converged")
}

// TestReplicationStreamToFollower drives the full HA arc in-process:
// the standby replays the primary's journal stream into an identical
// view, refuses mutations with a typed redirect while following, and
// after promotion owns the backlog — leased-but-unfinished work
// requeues and drains to completion.
func TestReplicationStreamToFollower(t *testing.T) {
	clk := newClock()
	p := newBroker(t, Config{Journal: journalFor(t, t.TempDir())}, clk)
	idA := submit(t, p, "acme", 0, spec("jobA", 0), spec("jobA", 1))
	idB := submit(t, p, "acme", 0, spec("jobB", 0))
	w := hello(t, p, "w1")
	leases := poll(t, p, w, 2)
	if len(leases) != 2 {
		t.Fatalf("primary granted %d leases, want 2", len(leases))
	}
	done(t, p, w, leases[0], "alpha")

	f, _ := followerFor(t, clk, "primary:7001")
	replicateAll(t, p.Journal(), f)

	// Read-only view matches the primary byte for byte (results
	// included) — status is served locally, never proxied.
	for _, id := range []string{idA, idB} {
		stP, err := p.Status(id)
		if err != nil {
			t.Fatalf("primary status %s: %v", id, err)
		}
		stF, err := f.Status(id)
		if err != nil {
			t.Fatalf("follower status %s: %v", id, err)
		}
		if !reflect.DeepEqual(stP, stF) {
			t.Fatalf("follower status diverged:\nprimary  %+v\nfollower %+v", stP, stF)
		}
	}

	// Mutations are refused with a retryable redirect at the primary.
	_, err := submitOne(f, api.JobSubmit{Proto: api.Version, Tenant: "acme", Tasks: []api.TaskSpec{spec("jobC", 0)}})
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeNotLeader {
		t.Fatalf("follower submit error = %v, want %s", err, api.CodeNotLeader)
	}
	if !ae.Retryable || ae.Primary != "primary:7001" || ae.RetryAfterNS <= 0 {
		t.Fatalf("not_leader lacks redirect/backoff hints: %+v", ae)
	}

	// Promotion: epoch bumps past every value the dead primary could
	// have journaled, and the one leased-but-unfinished task (jobA
	// shard 1 — its grant replicated, its result never arrived) is
	// reported requeued.
	epoch, requeued, err := f.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch != 2 || requeued != 1 {
		t.Fatalf("promote = (epoch %d, requeued %d), want (2, 1)", epoch, requeued)
	}
	if f.Role() != RolePrimary {
		t.Fatalf("role after promote = %s, want primary", f.Role())
	}
	if e2, r2, err := f.Promote(); err != nil || e2 != 2 || r2 != 0 {
		t.Fatalf("second promote = (%d, %d, %v), want idempotent (2, 0, nil)", e2, r2, err)
	}

	// The new primary owns the backlog: a fresh worker drains the two
	// open tasks and both jobs complete.
	w2 := hello(t, f, "w2")
	got := poll(t, f, w2, 4)
	if len(got) != 2 {
		t.Fatalf("new primary granted %d leases, want 2", len(got))
	}
	for _, l := range got {
		done(t, f, w2, l, "beta")
	}
	for _, id := range []string{idA, idB} {
		st, err := f.Status(id)
		if err != nil || st.Done != st.Total {
			t.Fatalf("job %s after takeover: %+v (%v)", id, st, err)
		}
	}
	// And accepts brand-new work.
	if _, err := submitOne(f, api.JobSubmit{Proto: api.Version, Tenant: "acme", Tasks: []api.TaskSpec{spec("jobC", 0)}}); err != nil {
		t.Fatalf("submit after promote: %v", err)
	}
}

// TestFollowerReplayTornLiveTail is the crash the cursor protocol
// exists for: the follower dies mid-batch, its journal holding one
// fully-applied record and a torn prefix of the next, with no cursor
// entry for either. The restarted follower must resume from the last
// durable cursor, re-apply the overlap idempotently (no duplicate
// journal entries) and pick up the torn record — nothing lost, nothing
// doubled.
func TestFollowerReplayTornLiveTail(t *testing.T) {
	clk := newClock()
	p := newBroker(t, Config{Journal: journalFor(t, t.TempDir())}, clk)
	idA := submit(t, p, "acme", 0, spec("jobA", 0))

	f1, dirF := followerFor(t, clk, "primary:7001")
	replicateAll(t, p.Journal(), f1) // cursor for jobA is durable

	idB := submit(t, p, "acme", 0, spec("jobB", 0))
	idC := submit(t, p, "acme", 0, spec("jobC", 0))
	gen, seg, off := f1.ReplCursor()
	ck := p.Journal().ReadStream(gen, seg, off, 0)
	nl := bytes.IndexByte(ck.Data, '\n')
	if nl < 0 || nl+1 >= len(ck.Data) {
		t.Fatalf("expected two journal lines in chunk, got %q", ck.Data)
	}
	// Crash mid-ApplyReplicated: jobB's line landed whole, jobC's was
	// cut mid-record, and the batch cursor was never written. Written
	// straight to the follower's active segment, bypassing f1, which is
	// dead from here on.
	torn := ck.Data[:nl+1+(len(ck.Data)-nl-1)/2]
	fh, err := os.OpenFile(filepath.Join(dirF, segmentName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(torn); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	// Restart over the same dir. Replay applies jobA and jobB, skips
	// the torn jobC prefix, and restores the cursor to the last durable
	// position — before jobB.
	f2 := newBroker(t, Config{
		Journal:     journalFor(t, dirF),
		Follower:    true,
		PrimaryAddr: "primary:7001",
	}, clk)
	if g, s, o := f2.ReplCursor(); g != gen || s != seg || o != off {
		t.Fatalf("restart cursor = (%d, %d, %d), want durable (%d, %d, %d)", g, s, o, gen, seg, off)
	}

	// Resume: the overlap (jobB) re-arrives and must be recognised as a
	// duplicate, jobC applies fresh.
	replicateAll(t, p.Journal(), f2)
	for _, id := range []string{idA, idB, idC} {
		if _, err := f2.Status(id); err != nil {
			t.Fatalf("job %s lost across torn-tail restart: %v", id, err)
		}
	}
	if st := f2.Metrics(); st.Jobs != 3 || st.Submitted != 3 {
		t.Fatalf("follower census after resume: jobs %d submitted %d, want 3/3", st.Jobs, st.Submitted)
	}
	rm := f2.Metrics().Replication
	if rm == nil || rm.Duplicates < 1 {
		t.Fatalf("resume overlap not counted as duplicate: %+v", rm)
	}
	// The duplicate must not have been journaled twice: exactly one
	// whole submit record for jobB across the follower's segments.
	if n := countJournalLines(t, dirF, `"kind":"submit"`, idB); n != 1 {
		t.Fatalf("follower journal holds %d submit records for %s, want exactly 1", n, idB)
	}
}

// countJournalLines counts newline-terminated journal records across
// every segment in dir containing all the given substrings.
func countJournalLines(t *testing.T, dir string, needles ...string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range ents {
		if !strings.HasPrefix(de.Name(), "journal-") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			hit := true
			for _, nd := range needles {
				if !strings.Contains(line, nd) {
					hit = false
					break
				}
			}
			if hit {
				n++
			}
		}
	}
	return n
}

// TestPromoteFencesZombiePrimary covers the split-brain edge: the old
// primary comes back after the standby promoted. The fence at the new
// epoch flips it to a redirecting read-only replica — durably, across
// its own restart — and every stale-epoch path is refused.
func TestPromoteFencesZombiePrimary(t *testing.T) {
	clk := newClock()
	dirP := t.TempDir()
	p := newBroker(t, Config{Journal: journalFor(t, dirP)}, clk)
	idA := submit(t, p, "acme", 0, spec("jobA", 0))

	f, _ := followerFor(t, clk, "primary:7001")
	replicateAll(t, p.Journal(), f)
	epoch, _, err := f.Promote()
	if err != nil || epoch != 2 {
		t.Fatalf("promote = (%d, %v), want epoch 2", epoch, err)
	}

	// The new primary refuses a fence at its own epoch or below: the
	// caller holding a stale epoch is the zombie, not this broker.
	if err := f.Fence(1, "nobody:1"); err == nil {
		t.Fatal("stale fence accepted")
	} else if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeBadRequest {
		t.Fatalf("stale fence error = %v, want %s", err, api.CodeBadRequest)
	}
	if err := f.Fence(2, "nobody:1"); err == nil {
		t.Fatal("same-epoch fence accepted by the promoting primary")
	}

	// Fence the zombie at the new epoch. Its late mutation is refused
	// with a typed redirect at the new primary.
	if err := p.Fence(epoch, "standby:7002"); err != nil {
		t.Fatalf("fence zombie: %v", err)
	}
	if p.Role() != RoleFenced || p.Epoch() != epoch {
		t.Fatalf("zombie after fence: role %s epoch %d", p.Role(), p.Epoch())
	}
	_, err = submitOne(p, api.JobSubmit{Proto: api.Version, Tenant: "acme", Tasks: []api.TaskSpec{spec("late", 0)}})
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeNotLeader || ae.Primary != "standby:7002" {
		t.Fatalf("fenced submit error = %v, want not_leader → standby:7002", err)
	}
	// Reads still work on the fenced replica; promotion does not.
	if _, err := p.Status(idA); err != nil {
		t.Fatalf("fenced status: %v", err)
	}
	if _, _, err := p.Promote(); err == nil {
		t.Fatal("fenced ex-primary promoted itself")
	} else if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeUnavailable {
		t.Fatalf("fenced promote error = %v, want %s", err, api.CodeUnavailable)
	}
	// Fencer retries are idempotent.
	if err := p.Fence(epoch, "standby:7002"); err != nil {
		t.Fatalf("idempotent re-fence: %v", err)
	}

	// The fence is journaled: a restart over the zombie's dir comes
	// back fenced at the new epoch, still redirecting.
	p2 := newBroker(t, Config{Journal: journalFor(t, dirP)}, clk)
	if p2.Role() != RoleFenced || p2.Epoch() != epoch {
		t.Fatalf("restarted zombie: role %s epoch %d, want fenced at %d", p2.Role(), p2.Epoch(), epoch)
	}
	if _, err := submitOne(p2, api.JobSubmit{Proto: api.Version, Tenant: "acme", Tasks: []api.TaskSpec{spec("late2", 0)}}); err == nil {
		t.Fatal("restarted fenced broker accepted a mutation")
	}
}

// TestReplicationCursorStaleAcrossPrimaryRestart is the silent-
// divergence trap: a follower's cursor sits mid-way through the
// primary's snapshot segment when the primary restarts, and the startup
// fold rewrites that same segment number with different bytes. If the
// restarted journal re-minted the old generation number, the cursor
// would validate against the new bytes, land mid-record and silently
// skip history. Generations are persisted (journal.meta) and strictly
// monotonic across incarnations, so the cursor must be forced to
// Restart instead.
func TestReplicationCursorStaleAcrossPrimaryRestart(t *testing.T) {
	clk := newClock()
	dirP := t.TempDir()
	p := newBroker(t, Config{Journal: rotatingJournal(t, dirP, 512)}, clk)
	for _, j := range []string{"jobA", "jobB", "jobC", "jobD"} {
		submit(t, p, "acme", 0, spec(j, 0), spec(j, 1))
	}
	waitCompacted(t, p.Journal())

	// Park a cursor mid-way through the snapshot segment: rebase from
	// zero, then read one tiny chunk.
	ck := p.Journal().ReadStream(0, 0, 0, 0)
	if !ck.Restart {
		t.Fatalf("zero cursor did not rebase: %+v", ck)
	}
	ck = p.Journal().ReadStream(ck.Gen, ck.Seg, ck.Off, 64)
	gen1, seg1, off1 := ck.Gen, ck.Seg, ck.Off
	if len(ck.Data) == 0 || off1 <= 0 {
		t.Fatalf("tiny read returned no progress: %+v", ck)
	}

	// More history, then a restart: the startup replay folds everything
	// into a rewritten snapshot — same segment number, new bytes.
	submit(t, p, "acme", 0, spec("jobE", 0))
	p2 := newBroker(t, Config{Journal: rotatingJournal(t, dirP, 512)}, clk)

	ck2 := p2.Journal().ReadStream(gen1, seg1, off1, 0)
	if !ck2.Restart {
		t.Fatalf("pre-restart cursor (%d, %d, %d) validated against the rewritten journal: %+v",
			gen1, seg1, off1, ck2)
	}
	if ck2.Gen <= gen1 {
		t.Fatalf("generation did not advance across restart: %d → %d", gen1, ck2.Gen)
	}
}

// TestFenceAdoptedByConfiguredFollower covers the fencer-races-
// replication edge: a fence at the new epoch reaches a broker that is
// already configured as a follower (the ex-primary restarted with
// -follow pointing at the new primary) before the epoch record arrives
// through replication. Flipping it to fenced would freeze the hot
// standby; instead it adopts the epoch and primary address and keeps
// following — still promotable.
func TestFenceAdoptedByConfiguredFollower(t *testing.T) {
	clk := newClock()
	p := newBroker(t, Config{Journal: journalFor(t, t.TempDir())}, clk)
	submit(t, p, "acme", 0, spec("jobA", 0))

	f, _ := followerFor(t, clk, "primary:7001")
	replicateAll(t, p.Journal(), f)

	if err := f.Fence(2, "newprimary:7002"); err != nil {
		t.Fatalf("fence on follower: %v", err)
	}
	if f.Role() != RoleFollower {
		t.Fatalf("fenced follower role = %s, want still follower", f.Role())
	}
	if f.Epoch() != 2 {
		t.Fatalf("follower epoch after fence = %d, want 2", f.Epoch())
	}
	// The fencer's retries stay idempotent.
	if err := f.Fence(2, "newprimary:7002"); err != nil {
		t.Fatalf("re-fence on follower: %v", err)
	}
	// Mutations now redirect at the fence's primary.
	_, err := submitOne(f, api.JobSubmit{Proto: api.Version, Tenant: "acme", Tasks: []api.TaskSpec{spec("jobB", 0)}})
	if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeNotLeader || ae.Primary != "newprimary:7002" {
		t.Fatalf("follower submit after fence = %v, want not_leader → newprimary:7002", err)
	}
	// And the standby stayed hot: still promotable, past the adopted
	// epoch.
	epoch, _, err := f.Promote()
	if err != nil {
		t.Fatalf("promote after fence: %v", err)
	}
	if epoch != 3 {
		t.Fatalf("promote epoch = %d, want 3 (past the adopted fence epoch)", epoch)
	}
}

// TestReplicationRestartAfterCompaction: the primary restarts and its
// startup replay folds the journal history the follower's cursor
// pointed into. The stream must answer with a rebased Restart chunk and
// the follower must converge by re-applying the fold — no state wipe,
// no divergence.
func TestReplicationRestartAfterCompaction(t *testing.T) {
	clk := newClock()
	dirP := t.TempDir()
	p := newBroker(t, Config{Journal: rotatingJournal(t, dirP, 512)}, clk)
	var ids []string
	for _, j := range []string{"jobA", "jobB", "jobC", "jobD"} {
		ids = append(ids, submit(t, p, "acme", 0, spec(j, 0), spec(j, 1)))
	}
	waitCompacted(t, p.Journal())

	f, _ := followerFor(t, clk, "primary:7001")
	replicateAll(t, p.Journal(), f)

	// Primary restarts: startup replay folds every sealed segment into
	// one snapshot under a new generation.
	p2 := newBroker(t, Config{Journal: rotatingJournal(t, dirP, 512)}, clk)
	gen, seg, off := f.ReplCursor()
	ck := p2.Journal().ReadStream(gen, seg, off, 0)
	if !ck.Restart {
		t.Fatalf("stream over folded history did not restart: cursor (%d, %d, %d) → %+v", gen, seg, off, ck)
	}

	replicateAll(t, p2.Journal(), f)
	for _, id := range ids {
		stP, err := p2.Status(id)
		if err != nil {
			t.Fatalf("primary status %s: %v", id, err)
		}
		stF, err := f.Status(id)
		if err != nil {
			t.Fatalf("follower status %s after restart: %v", id, err)
		}
		if !reflect.DeepEqual(stP, stF) {
			t.Fatalf("follower diverged after fold:\nprimary  %+v\nfollower %+v", stP, stF)
		}
	}
	if st := f.Metrics(); st.Jobs != len(ids) {
		t.Fatalf("follower jobs after fold = %d, want %d", st.Jobs, len(ids))
	}
	rm := f.Metrics().Replication
	if rm == nil || rm.Restarts != 1 {
		t.Fatalf("fold restart not counted once: %+v", rm)
	}
}
