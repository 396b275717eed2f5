package queue

import (
	"bytes"
	"context"
	"log"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/wal"
)

// Broker high availability: primary/standby journal streaming.
//
// The primary's journal is the replication log — nothing is journaled
// twice. A follower long-polls ReadStream/WaitStream with a
// (generation, segment, offset) cursor and receives raw journal bytes,
// whole lines only and never past the primary's fsync watermark, so
// the follower can only ever apply records the primary already made
// durable (an acked submit can survive the primary's disk, or it was
// never streamed — there is no in-between). The follower appends the
// same bytes verbatim to its own journal, folds them into live state
// through the same applyEntryLocked that startup replay uses, and
// records its cursor so a crash resumes where it left off; overlap
// after a torn-tail restart is re-applied idempotently.
//
// Compaction rewrites history, so each fold bumps the journal's
// generation; a cursor minted before the fold into a folded segment no
// longer resolves and the primary answers Restart with the cursor
// rebased to its oldest segment. The follower simply re-applies from
// there — idempotence makes a restart a no-op on state. Generations are
// persisted (journal.meta) and strictly monotonic across primary
// restarts, so a cursor minted against a previous incarnation — whose
// startup replay refolds the snapshot segment under the same segment
// number — can never coincidentally validate; it is below the restarted
// journal's base generation and forces Restart.
//
// Fencing: every broker carries an epoch (starting at 1). Promotion
// bumps it and fsyncs an epoch stamp into the new primary's journal
// before it accepts a single mutation; the promoted broker then tells
// its ex-primary to fence itself (Fence), which stamps the higher
// epoch with Fenced set — durably, so a zombie primary stays fenced
// across its own restarts — and refuses all mutations with a typed
// retryable not_leader error carrying the new primary's address.

// Role is a broker's replication role.
type Role uint8

const (
	// RolePrimary accepts mutations (the default for a standalone
	// broker — HA is strictly additive).
	RolePrimary Role = iota
	// RoleFollower applies a primary's journal stream and answers
	// read-only endpoints; mutations get not_leader.
	RoleFollower
	// RoleFenced is an ex-primary that has adopted a higher epoch: it
	// keeps answering reads (useful for post-mortems) but refuses
	// mutations forever, pointing clients at the new primary.
	RoleFenced
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleFenced:
		return "fenced"
	default:
		return "primary"
	}
}

// notLeaderRetryAfter is the backoff floor stamped on not_leader
// errors: long enough to stop a tight redirect loop, short enough that
// failover latency stays invisible next to a promotion.
const notLeaderRetryAfter = 250 * time.Millisecond

// defaultStreamChunk caps one replicate reply's payload.
const defaultStreamChunk int64 = 1 << 20

// replState is the follower-side replication bookkeeping.
type replState struct {
	cursorGen int
	cursorSeg int
	cursorOff int64

	primarySeg int
	primaryOff int64

	applied    int
	duplicates int
	skipped    int
	batches    int
	restarts   int

	lastContact time.Time
}

// StreamChunk is one span of raw journal bytes plus the cursor to
// resume from after applying it.
type StreamChunk struct {
	// Data is zero or more whole journal lines, verbatim.
	Data []byte
	// Gen/Seg/Off is the cursor after Data.
	Gen int
	Seg int
	Off int64
	// Restart reports the request cursor no longer resolved (compaction
	// folded it away); the returned cursor was rebased to the oldest
	// live segment.
	Restart bool
	// PrimarySeg/PrimaryOff is the serving journal's durable watermark.
	PrimarySeg int
	PrimaryOff int64
}

// ReadStream reads the next span of durable journal bytes at the given
// cursor, without blocking. An empty Data with an unchanged cursor
// means the follower is caught up to the fsync watermark.
func (jl *Journal) ReadStream(gen, seg int, off, maxBytes int64) StreamChunk {
	if maxBytes <= 0 {
		maxBytes = defaultStreamChunk
	}
	jl.mu.Lock()
	synced := jl.active.Synced()
	ck := StreamChunk{
		Gen: jl.generation, Seg: seg, Off: off,
		PrimarySeg: jl.activeSeg, PrimaryOff: synced,
	}
	if jl.closed {
		jl.mu.Unlock()
		return ck
	}
	segs := append(append(append([]int(nil), jl.claimed...), jl.sealed...), jl.activeSeg)
	sort.Ints(segs)
	found := slices.Contains(segs, seg)
	// A cursor is stale if its segment is gone, if it predates a fold
	// that rewrote that segment's content (same number, new bytes), or
	// if it was minted by another incarnation of this journal (below
	// baseGen: an earlier incarnation whose folds may have rewritten
	// anything; above generation: a different journal entirely, e.g. a
	// wiped-and-recreated directory). Only segments above foldedThrough
	// minted under this incarnation are append-only history that stays
	// valid across generations.
	if !found || (gen != jl.generation &&
		(seg <= jl.foldedThrough || gen < jl.baseGen || gen > jl.generation)) {
		ck.Restart = true
		seg, off = segs[0], 0
		ck.Seg, ck.Off = seg, off
	}
	// Walk to the first segment with readable bytes at or past the
	// cursor. Sealed segments read to their full size; the active one
	// only to the fsync watermark.
	var limit int64
	for {
		if seg == jl.activeSeg {
			limit = synced
		} else if st, err := os.Stat(jl.segmentPath(seg)); err == nil {
			limit = st.Size()
		} else {
			log.Printf("queue: journal: stream stat segment %d: %v", seg, err)
			limit = 0
		}
		if off < limit {
			break
		}
		next := sort.SearchInts(segs, seg+1)
		if next == len(segs) {
			// Caught up.
			ck.Seg, ck.Off = seg, off
			jl.mu.Unlock()
			return ck
		}
		seg, off = segs[next], 0
	}
	// Open under the lock: a concurrent compaction rename cannot swap
	// the inode between the limit decision and the read, and an open fd
	// keeps reading the old bytes even if it does land right after.
	f, err := os.Open(jl.segmentPath(seg))
	jl.mu.Unlock()
	ck.Seg, ck.Off = seg, off
	if err != nil {
		log.Printf("queue: journal: stream open segment %d: %v", seg, err)
		return ck
	}
	defer f.Close()
	n := limit - off
	if n > maxBytes {
		n = maxBytes
	}
	for {
		buf := make([]byte, n)
		rd, err := f.ReadAt(buf, off)
		if rd < int(n) {
			log.Printf("queue: journal: stream read segment %d: %v", seg, err)
			return ck
		}
		if cut := bytes.LastIndexByte(buf, '\n'); cut >= 0 {
			ck.Data = buf[:cut+1]
			ck.Off = off + int64(cut+1)
			break
		}
		if n == limit-off {
			// No newline all the way to the limit: an unterminated crash
			// tail in a sealed segment (OpenJournal seals the pre-crash
			// segment as-is). The bytes cannot decode; step past them so
			// the cursor can move on to the next segment.
			ck.Off = limit
			break
		}
		// One record overflowed the cap; grow until it fits.
		n *= 2
		if n > limit-off {
			n = limit - off
		}
	}
	if len(ck.Data) > 0 {
		jl.mu.Lock()
		jl.streamReads++
		jl.streamBytes += int64(len(ck.Data))
		jl.mu.Unlock()
	}
	return ck
}

// WaitStream is ReadStream with a long poll: when the cursor is at the
// durable tip it parks until an fsync moves the watermark, the wait
// elapses, or ctx cancels.
func (jl *Journal) WaitStream(ctx context.Context, gen, seg int, off, maxBytes int64, wait time.Duration) StreamChunk {
	deadline := time.Now().Add(wait)
	for {
		// Capture the wake channel before reading: an fsync landing
		// between the read and the park closes-and-replaces the channel,
		// and a waiter that captured afterwards would sleep out its full
		// deadline with bytes already available. Captured first, that
		// fsync closes this channel and the select returns immediately.
		jl.mu.Lock()
		wake := jl.syncWake
		jl.mu.Unlock()
		ck := jl.ReadStream(gen, seg, off, maxBytes)
		if len(ck.Data) > 0 || ck.Restart || ck.Seg != seg || ck.Off != off {
			return ck
		}
		jl.mu.Lock()
		closed := jl.closed
		jl.mu.Unlock()
		if closed || wait <= 0 || !time.Now().Before(deadline) || ctx.Err() != nil {
			return ck
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ck
		}
	}
}

// Journal exposes the broker's journal to the transport layer (the
// /v2/replicate handler streams from it); nil when not journaled.
func (b *Broker) Journal() *Journal { return b.cfg.Journal }

// Role reports the broker's current replication role.
func (b *Broker) Role() Role {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.role
}

// Epoch reports the broker's current fencing epoch.
func (b *Broker) Epoch() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// ReplCursor reports the follower's replication resume cursor (zero
// values on a broker that never followed).
func (b *Broker) ReplCursor() (gen, seg int, off int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repl.cursorGen, b.repl.cursorSeg, b.repl.cursorOff
}

// roleGateLocked refuses mutations on a non-primary with a typed
// retryable not_leader error carrying the primary's address (when
// known) and a backoff floor.
func (b *Broker) roleGateLocked() error {
	if b.role == RolePrimary {
		return nil
	}
	ae := api.Errf(api.CodeNotLeader,
		"broker is a %s at epoch %d; mutations go to the primary", b.role, b.epoch)
	ae.Primary = b.primaryAddr
	ae.RetryAfterNS = int64(notLeaderRetryAfter)
	return ae
}

// roleGate is roleGateLocked for callers outside b.mu (the cheap
// pre-lock fast path).
func (b *Broker) roleGate() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.roleGateLocked()
}

// ApplyReplicated folds one replicate reply into the follower: every
// well-formed record (read with the journal's own lenient replay) is
// applied through applyEntryLocked and appended verbatim to the
// follower's own journal, then the cursor is journaled and the batch
// fsynced once. Undecodable records are counted and dropped — never
// re-journaled, where they would poison a future strict sealed-segment
// replay. Duplicate records (resume overlap, compaction leftovers) are
// idempotently skipped.
func (b *Broker) ApplyReplicated(ck StreamChunk) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.role != RoleFollower {
		return api.Errf(api.CodeUnavailable, "broker is a %s, not a follower", b.role)
	}
	if ck.Restart && b.repl.batches > 0 {
		b.repl.restarts++
	}
	skipped, _ := wal.ReplayReader(bytes.NewReader(ck.Data), wal.Lenient, func(rec []byte) error {
		e, err := decodeJournalEntry(rec)
		if err != nil || e.Kind == entryCursor {
			// A cursor is the upstream's own resume bookkeeping (it
			// followed someone once); meaningless here and never
			// re-journaled.
			return err
		}
		switch b.applyEntryLocked(e) {
		case applyApplied:
			b.repl.applied++
			if jl := b.cfg.Journal; jl != nil {
				b.compactIfRotatedLocked(jl.appendRaw(rec))
			}
		case applyDuplicate:
			b.repl.duplicates++
		default:
			b.repl.skipped++
		}
		return nil
	})
	b.repl.skipped += len(skipped)
	moved := ck.Gen != b.repl.cursorGen || ck.Seg != b.repl.cursorSeg || ck.Off != b.repl.cursorOff
	b.repl.cursorGen, b.repl.cursorSeg, b.repl.cursorOff = ck.Gen, ck.Seg, ck.Off
	b.repl.primarySeg, b.repl.primaryOff = ck.PrimarySeg, ck.PrimaryOff
	b.repl.lastContact = b.now()
	if len(ck.Data) > 0 || ck.Restart {
		b.repl.batches++
	}
	if moved && b.cfg.Journal != nil {
		b.journalAppendLocked(journalEntry{
			Kind: entryCursor, Gen: ck.Gen, Seg: ck.Seg, Off: ck.Off,
		}, false)
		// One fsync covers the whole batch plus its cursor.
		b.journalSyncLocked()
	}
	return nil
}

// Promote turns a follower into the primary: the fencing epoch is
// bumped and fsynced into the journal before the first mutation can be
// accepted, and every task the dead primary had out on a lease is
// reported as requeued (it is already pending here — grants never
// transfer, they surface as expiry→requeue). Idempotent on a broker
// that is already primary; refused on a fenced ex-primary, which would
// otherwise split the brain it was fenced to protect.
func (b *Broker) Promote() (epoch int64, requeued int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.role {
	case RolePrimary:
		return b.epoch, 0, nil
	case RoleFenced:
		return 0, 0, api.Errf(api.CodeUnavailable,
			"broker is fenced at epoch %d (primary %s); a fenced ex-primary cannot promote",
			b.epoch, b.primaryAddr)
	}
	b.epoch++
	b.role = RolePrimary
	b.primaryAddr = ""
	for _, j := range b.jobs {
		if j.canceled {
			continue
		}
		for _, t := range j.tasks {
			if t.state == taskPending && t.granted {
				requeued++
				t.granted = false
			}
		}
	}
	b.journalAppendLocked(journalEntry{Kind: entryEpoch, Epoch: b.epoch}, true)
	b.wakeAll()
	return b.epoch, requeued, nil
}

// Fence tells this broker a higher epoch exists. A primary (or an
// already-fenced ex-primary at a lower epoch) adopts it, journals it
// (fsynced, with the Fenced stamp, so the fence survives restarts) and
// refuses mutations from now on, pointing clients at primary. A
// configured follower adopts the epoch and the redirect hint but stays
// a follower — it is already read-only, must keep replicating, and must
// stay promotable; flipping it to fenced would race the fencer's
// retries against the replicated epoch entry and silently freeze a
// standby the operator believes is hot. A stale epoch — at or below the
// broker's own, on a non-follower — is refused with bad_request: the
// caller is the zombie, not this broker.
func (b *Broker) Fence(epoch int64, primary string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch < b.epoch {
		return api.Errf(api.CodeBadRequest,
			"stale fencing epoch %d (broker at epoch %d)", epoch, b.epoch)
	}
	if b.role == RoleFollower {
		if epoch > b.epoch {
			b.epoch = epoch
			b.journalAppendLocked(journalEntry{
				Kind: entryEpoch, Epoch: epoch, Primary: primary,
			}, true)
		}
		if primary != "" {
			b.primaryAddr = primary
		}
		return nil
	}
	if epoch == b.epoch {
		if b.role != RoleFenced {
			return api.Errf(api.CodeBadRequest,
				"stale fencing epoch %d (broker at epoch %d)", epoch, b.epoch)
		}
		if primary != "" {
			b.primaryAddr = primary
		}
		return nil // idempotent fence retry
	}
	b.epoch = epoch
	b.role = RoleFenced
	b.primaryAddr = primary
	b.journalAppendLocked(journalEntry{
		Kind: entryEpoch, Epoch: epoch, Fenced: true, Primary: primary,
	}, true)
	// Unpark long polls so waiting workers hear not_leader now, not at
	// their deadline.
	b.wakeAll()
	return nil
}
