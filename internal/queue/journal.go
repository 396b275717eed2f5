package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/wal"
)

// The journal makes the broker's backlog survive a crash. It is a
// sequence of segments, <dir>/journal-NNNNNN.jsonl, each an
// internal/wal record file of journalEntry lines stamped with
// journalFormatVersion. wal moves the bytes (one write per record,
// fsync, replay, atomic replace); this file decides what the segments
// mean.
//
// Segmentation bounds the damage radius and the disk footprint. Appends
// go to the highest-numbered (active) segment; when it exceeds the
// byte budget the journal seals it and rolls to a fresh one, and the
// broker folds the sealed segments into a single state snapshot in the
// background — compaction runs under load, not just at startup. Replay
// walks the segments in number order, so a snapshot (always the lowest
// segment) is applied first and later segments layer deltas on top.
//
// Corruption policy follows position. The active segment's tail is
// where SIGKILL mid-write tears a record, so it replays wal.Lenient:
// damage costs at most the last record and is skipped with a warning. A
// sealed (non-final) segment was written, fsynced and rolled past, so
// it replays wal.Strict: damage there means the disk lied or an
// operator edited history, and OpenJournal fails loudly rather than
// silently serving a backlog with a hole in the middle.
//
// Background compaction is crash-safe without a manifest because
// replay is idempotent: the snapshot atomically replaces the lowest
// folded segment (wal.WriteFile), and only then are the other folded
// segments deleted. A crash between the replace and the deletes leaves
// stale segments whose entries are a subset of the snapshot; replaying
// them again skips duplicate submits and rewrites byte-identical
// results.
//
// What is written, and how durably, follows from what a loss costs:
//
//   - submit, done, cancel are fsynced before the broker replies. These
//     are the records a client acts on (it stops resubmitting once its
//     job's id arrives in the batch reply, stops polling once results
//     land), so they must survive the crash that immediately follows
//     the reply.
//   - grant (lease) entries are appended without fsync. Losing one
//     re-runs a task that was already leased — wasted work, not lost
//     work — and tasks are deterministic, so the re-run is
//     byte-identical.

// journalFormatVersion stamps every entry; bump on any layout change so
// replay skips entries written by incompatible code.
const journalFormatVersion = "qjournal1"

// legacyJournalFile is the pre-segmentation single-file name; found
// alone, it is adopted as segment 1.
const legacyJournalFile = "journal.jsonl"

// journalMetaFile persists the replication generation across restarts.
// Generations must be monotonic over the journal's whole lifetime — not
// just one process incarnation — or a follower cursor minted before a
// crash could coincidentally match the restarted primary's in-memory
// counter and falsely validate against a snapshot the startup fold
// rewrote (silent standby divergence). Every exposed generation is
// persisted here before it becomes visible, and OpenJournal resumes one
// past the persisted value.
const journalMetaFile = "journal.meta"

// journalMeta is the on-disk layout of journalMetaFile.
type journalMeta struct {
	V   string `json:"v"`
	Gen int    `json:"gen"`
}

// readJournalMeta returns the last persisted generation (0 when the
// file does not exist — a journal that never replicated or predates
// generation persistence). A present-but-unreadable meta is a hard
// error, like corruption in a sealed segment: guessing a generation
// risks serving stale replication cursors as valid.
func readJournalMeta(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, journalMetaFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("queue: journal meta: %w", err)
	}
	var m journalMeta
	if err := json.Unmarshal(bytes.TrimSpace(raw), &m); err != nil || m.V != journalFormatVersion || m.Gen < 0 {
		return 0, fmt.Errorf("queue: journal meta %s corrupt; delete it to reset replication generations (followers will restart their streams)",
			filepath.Join(dir, journalMetaFile))
	}
	return m.Gen, nil
}

// writeJournalMeta durably records gen with an atomic replace.
func writeJournalMeta(dir string, gen int) error {
	raw, err := json.Marshal(journalMeta{V: journalFormatVersion, Gen: gen})
	if err != nil {
		return err
	}
	return wal.WriteFile(filepath.Join(dir, journalMetaFile), [][]byte{raw})
}

// segmentName renders the on-disk name of segment n.
func segmentName(n int) string {
	return fmt.Sprintf("journal-%06d.jsonl", n)
}

// segmentNumber parses a segment file name back to its number.
func segmentNumber(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "journal-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".jsonl")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Journal entry kinds.
const (
	entrySubmit = "submit"
	entryGrant  = "grant"
	entryDone   = "done"
	entryCancel = "cancel"
	// entryEpoch stamps a fencing epoch: written (fsynced) when a
	// follower promotes, and — with Fenced set — when an ex-primary is
	// told the epoch moved on. Replaying it restores the fence across
	// restarts, so a zombie primary stays fenced.
	entryEpoch = "epoch"
	// entryCursor is follower-only bookkeeping: the replication resume
	// position, appended after each applied batch. It is meaningful only
	// in the journal that wrote it (own=true on replay) — streamed to a
	// downstream follower it is ignored.
	entryCursor = "cursor"
)

// journalEntry is one persisted line. Kind selects which fields are
// meaningful: submit carries the job (tenant, priority, tasks), grant
// and done carry a task index (and done a result), cancel only the job
// id.
type journalEntry struct {
	V    string `json:"v"`
	Kind string `json:"kind"`
	Job  string `json:"job"`

	Tenant   string         `json:"tenant,omitempty"`
	Priority int            `json:"priority,omitempty"`
	Tasks    []api.TaskSpec `json:"tasks,omitempty"`

	Task   int             `json:"task,omitempty"`
	Worker string          `json:"worker,omitempty"`
	Result *api.TaskResult `json:"result,omitempty"`

	// Epoch-entry fields: the fencing epoch, whether this broker is the
	// fenced party (as opposed to the promoting one), and where the new
	// primary lives (the redirect hint for refused mutations).
	Epoch   int64  `json:"epoch,omitempty"`
	Fenced  bool   `json:"fenced,omitempty"`
	Primary string `json:"primary,omitempty"`

	// Cursor-entry fields: the replication resume position (generation,
	// segment, offset) into the primary's journal.
	Seg int   `json:"seg,omitempty"`
	Off int64 `json:"off,omitempty"`
	Gen int   `json:"gen,omitempty"`
}

// decodeJournalEntry parses one journal record, refusing other format
// versions.
func decodeJournalEntry(rec []byte) (journalEntry, error) {
	var e journalEntry
	if err := json.Unmarshal(rec, &e); err != nil {
		return e, err
	}
	if e.V != journalFormatVersion {
		return e, fmt.Errorf("version %q (want %q)", e.V, journalFormatVersion)
	}
	return e, nil
}

// Journal is the broker's write-ahead record. All methods are safe for
// concurrent use; append failures are logged once per cause and
// otherwise swallowed — persistence degrades, the queue keeps serving
// (exactly like the disk result cache).
type Journal struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64

	// active is the active segment's append handle; its Size and Synced
	// are the segment's byte count and fsync watermark. Streaming never
	// serves bytes past the watermark, so a follower only ever sees
	// records the primary already made durable.
	active    *wal.Log
	activeSeg int
	closed    bool
	sealed    []int // rolled-past segments awaiting compaction, ascending
	claimed   []int // segments a running compaction owns
	loaded    []journalEntry
	compactWG sync.WaitGroup // in-flight compactAsync goroutines

	// Replication read side. syncWake is closed (and replaced) whenever
	// the fsync watermark moves, waking parked long-poll readers.
	// generation counts compaction folds — each fold rewrites history,
	// invalidating cursors into any segment ≤ foldedThrough that were
	// minted under an older generation. Generations are persisted
	// (journalMetaFile) before they are exposed and never repeat across
	// restarts; baseGen is this incarnation's first generation, so any
	// cursor below it was minted against history a previous incarnation
	// may have rewritten.
	syncWake      chan struct{}
	generation    int
	baseGen       int
	foldedThrough int

	faults *faultinject.Injector

	appends, fsyncs, compactions  int
	rotations                     int
	replayJobs, replayTasks       int
	replayRequeued, replaySkipped int
	streamReads                   int
	streamBytes                   int64
}

// OpenJournal opens the journal under dir, reading every existing
// segment (adopting a legacy single-file journal as segment 1) and
// starting a fresh active segment above them. maxBytes bounds the
// active segment: appends past it seal the segment and roll to a new
// one (0 disables rotation). Corruption in a sealed segment is a hard
// error; only the final segment's tail is forgiven (see the package
// comment). The returned Journal is handed to the broker via
// Config.Journal; queue replay and compaction happen inside New.
func OpenJournal(dir string, maxBytes int64) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("queue: journal dir: %w", err)
	}
	jl := &Journal{dir: dir, maxBytes: maxBytes, syncWake: make(chan struct{})}

	// Resume one generation past the last one this journal ever exposed
	// and persist the claim before serving: a follower cursor minted by
	// any earlier incarnation is then provably below baseGen, even if
	// the crash landed between a fold's snapshot rename and its meta
	// write.
	gen, err := readJournalMeta(dir)
	if err != nil {
		return nil, err
	}
	jl.generation = gen + 1
	jl.baseGen = jl.generation
	if err := writeJournalMeta(dir, jl.generation); err != nil {
		return nil, fmt.Errorf("queue: persist journal generation: %w", err)
	}

	// A temp file is a compaction that died before its rename; its
	// content is still fully covered by the claimed segments it was
	// folding, so it is pure garbage here.
	tmps, _ := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"+wal.TempSuffix))
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil {
			log.Printf("queue: journal: drop stale %s: %v", filepath.Base(tmp), err)
		}
	}

	names, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("queue: scan journal dir: %w", err)
	}
	var segs []int
	for _, name := range names {
		if n, ok := segmentNumber(filepath.Base(name)); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)

	// Adopt a pre-segmentation journal as the first segment — but only
	// into an otherwise empty directory. If segments already exist (a
	// directory served by both old and new binaries across a downgrade),
	// renaming would clobber a segment and the replay order of the two
	// histories is a guess either way; refuse and let the operator pick.
	legacy := filepath.Join(dir, legacyJournalFile)
	if _, err := os.Stat(legacy); err == nil {
		if len(segs) > 0 {
			return nil, fmt.Errorf("queue: both %s and %d journal segment(s) exist in %s; move one aside before starting",
				legacyJournalFile, len(segs), dir)
		}
		if err := os.Rename(legacy, jl.segmentPath(1)); err != nil {
			return nil, fmt.Errorf("queue: adopt legacy journal: %w", err)
		}
		segs = []int{1}
	}

	for i, n := range segs {
		mode := wal.Strict
		if i == len(segs)-1 {
			mode = wal.Lenient
		}
		entries, err := jl.readSegment(n, mode)
		if err != nil {
			return nil, err
		}
		jl.loaded = append(jl.loaded, entries...)
	}
	jl.sealed = segs

	jl.activeSeg = 1
	if len(segs) > 0 {
		jl.activeSeg = segs[len(segs)-1] + 1
	}
	if jl.active, err = wal.Open(jl.segmentPath(jl.activeSeg)); err != nil {
		return nil, fmt.Errorf("queue: open journal segment: %w", err)
	}
	return jl, nil
}

// SetFaults installs a fault injector on the append path (points
// "journal.append.<kind>"); nil removes it. Test tooling only.
func (jl *Journal) SetFaults(in *faultinject.Injector) {
	jl.mu.Lock()
	jl.faults = in
	jl.mu.Unlock()
}

// segmentPath is the full path of segment n.
func (jl *Journal) segmentPath(n int) string {
	return filepath.Join(jl.dir, segmentName(n))
}

// Close waits out any in-flight background compaction, then flushes
// and closes the active segment. Waiting first keeps a fold from
// renaming or deleting segments after the process thinks the journal
// is shut (and after a test has torn down the directory).
func (jl *Journal) Close() error {
	jl.compactWG.Wait()
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil
	}
	jl.closed = true
	jl.wakeStreamLocked() // unpark long-poll readers so they observe the close
	return jl.active.Close()
}

// wakeStreamLocked signals streaming readers that the durable frontier
// moved (or the journal closed). Callers hold jl.mu.
func (jl *Journal) wakeStreamLocked() {
	close(jl.syncWake)
	jl.syncWake = make(chan struct{})
}

// append writes one entry; with sync it also fsyncs, making the entry
// durable before the caller replies to its client. The returned flag
// reports that the active segment rolled over — the caller (the
// broker, holding its own lock) should claim the sealed segments for
// background compaction while its state still exactly matches them.
func (jl *Journal) append(e journalEntry, sync bool) (rotated bool) {
	e.V = journalFormatVersion
	rec, err := json.Marshal(e)
	if err != nil {
		log.Printf("queue: journal: marshal %s entry: %v", e.Kind, err)
		return false
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return false
	}
	if act, ok := jl.faults.Eval("journal.append." + e.Kind); ok {
		switch act.Kind {
		case faultinject.KindTorn:
			// Half the record and a newline: exactly the wound a power
			// cut leaves — one corrupt line at the tail.
			if err := jl.active.Append(rec[:len(rec)/2]); err != nil {
				log.Printf("queue: journal: append: %v", err)
			}
			return false
		case faultinject.KindDelay:
			jl.mu.Unlock()
			time.Sleep(act.Delay)
			jl.mu.Lock()
			if jl.closed {
				return false
			}
		default: // drop, error, disconnect: the record is lost
			return false
		}
	}
	return jl.writeLocked(rec, sync)
}

// appendRaw appends one already-serialized journal record verbatim —
// the follower's write path, which must keep the replicated bytes
// identical to the primary's so the two journals stay comparable. The
// caller vets the record (parsable, current version) and fsyncs per
// batch via sync(). Returns whether the segment rolled over.
func (jl *Journal) appendRaw(rec []byte) (rotated bool) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return false
	}
	return jl.writeLocked(rec, false)
}

// writeLocked appends one record to the active segment, fsyncing it
// when sync is set, and rotates once the segment reaches the byte
// budget. Callers hold jl.mu.
func (jl *Journal) writeLocked(rec []byte, sync bool) (rotated bool) {
	if err := jl.active.Append(rec); err != nil {
		log.Printf("queue: journal: append: %v", err)
		return false
	}
	jl.appends++
	if sync && !jl.syncLocked() {
		return false
	}
	if jl.maxBytes > 0 && jl.active.Size() >= jl.maxBytes {
		return jl.rotateLocked()
	}
	return false
}

// rotateLocked seals the active segment and opens the next one,
// reporting whether the rotation happened. The outgoing segment is
// fsynced before it is sealed: a rotation can land mid-batch, with
// unsynced submit entries still in the page cache, and once a segment
// is sealed replay reads it in strict mode — every record in it must
// be durable, or a power cut would both lose acked submissions and
// leave a torn tail that makes OpenJournal refuse to start. If the
// next segment cannot be opened the current one stays active:
// durability beats the byte budget, and the next append over budget
// retries.
func (jl *Journal) rotateLocked() bool {
	if err := jl.active.Sync(); err != nil {
		// Can't prove the segment is durable, so don't seal it.
		log.Printf("queue: journal: fsync before sealing segment %d: %v", jl.activeSeg, err)
		return false
	}
	jl.fsyncs++
	next, err := wal.Open(jl.segmentPath(jl.activeSeg + 1))
	if err != nil {
		log.Printf("queue: journal: open segment %d: %v", jl.activeSeg+1, err)
		return false
	}
	if err := jl.active.Close(); err != nil {
		log.Printf("queue: journal: seal segment %d: %v", jl.activeSeg, err)
	}
	jl.sealed = append(jl.sealed, jl.activeSeg)
	jl.active = next
	jl.activeSeg++
	jl.rotations++
	// The sealed segment is now fully durable and readable end to end;
	// wake streamers parked at the old watermark.
	jl.wakeStreamLocked()
	return true
}

// sync fsyncs everything appended so far; one sync can cover a whole
// batch of appends.
func (jl *Journal) sync() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if !jl.closed {
		jl.syncLocked()
	}
}

// syncLocked fsyncs the active segment and wakes streamers parked at
// the old watermark. Callers hold jl.mu.
func (jl *Journal) syncLocked() bool {
	if err := jl.active.Sync(); err != nil {
		log.Printf("queue: journal: fsync: %v", err)
		return false
	}
	jl.fsyncs++
	jl.wakeStreamLocked()
	return true
}

// load hands over the entries OpenJournal read, in segment order, and
// releases the cached copy.
func (jl *Journal) load() []journalEntry {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	entries := jl.loaded
	jl.loaded = nil
	return entries
}

// readSegment reads every well-formed current-version entry of segment
// n in file order. Sealed segments are read wal.Strict, where any
// unusable line is a hard error; the final segment, whose tail a
// SIGKILL may have torn, is read wal.Lenient and each skipped line is
// counted and logged.
func (jl *Journal) readSegment(n int, mode wal.Mode) ([]journalEntry, error) {
	var entries []journalEntry
	skipped, err := wal.Replay(jl.segmentPath(n), mode, func(rec []byte) error {
		e, err := decodeJournalEntry(rec)
		if err == nil {
			entries = append(entries, e)
		}
		return err
	})
	var bad *wal.RecordError
	if errors.As(err, &bad) {
		return nil, fmt.Errorf("queue: journal segment %d corrupt: %v (sealed segments must replay cleanly; refusing to serve a backlog with a hole in it)",
			n, bad)
	}
	if err != nil {
		return nil, fmt.Errorf("queue: journal segment %d: %w", n, err)
	}
	for _, s := range skipped {
		jl.noteSkip("segment %d %v", n, s)
	}
	return entries, nil
}

// noteSkip records one unusable journal line (or region) and warns.
func (jl *Journal) noteSkip(format string, args ...any) {
	jl.mu.Lock()
	jl.replaySkipped++
	jl.mu.Unlock()
	log.Printf("queue: journal: skipping %s", fmt.Sprintf(format, args...))
}

// claimSealed hands the current sealed segments to a compaction run,
// or nothing if one is already in flight (segments sealed meanwhile
// simply wait for the next claim). The caller must capture the state
// snapshot those segments add up to — under the broker lock, right
// after the rotating append — and then run compactSegments.
func (jl *Journal) claimSealed() []int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if len(jl.claimed) > 0 || len(jl.sealed) == 0 {
		return nil
	}
	jl.claimed = jl.sealed
	jl.sealed = nil
	return jl.claimed
}

// compactAsync runs compactSegments on its own goroutine, tracked so
// Close can wait for the fold to land (or release) before the active
// segment shuts down under it.
func (jl *Journal) compactAsync(claimed []int, live []journalEntry) {
	jl.compactWG.Add(1)
	go func() {
		defer jl.compactWG.Done()
		jl.compactSegments(claimed, live)
	}()
}

// compactSegments folds the claimed segments into one snapshot
// segment: live atomically replaces the lowest claimed segment, and the
// rest are deleted. Safe to run concurrently with appends (they target
// the active segment, which is never claimed). On failure the claimed
// segments return to the sealed list untouched — still fully
// replayable, retried on the next claim.
func (jl *Journal) compactSegments(claimed []int, live []journalEntry) {
	records := make([][]byte, 0, len(live))
	var err error
	for _, e := range live {
		e.V = journalFormatVersion
		var rec []byte
		if rec, err = json.Marshal(e); err != nil {
			break
		}
		records = append(records, rec)
	}
	if err == nil {
		err = wal.WriteFile(jl.segmentPath(claimed[0]), records)
	}
	if err != nil {
		log.Printf("queue: journal: compact: %v", err)
		jl.mu.Lock()
		jl.sealed = append(jl.sealed, claimed...)
		sort.Ints(jl.sealed)
		jl.claimed = nil
		jl.mu.Unlock()
		return
	}
	// The snapshot is durable; stale copies of its content can go. A
	// crash mid-loop only leaves segments replay already tolerates.
	for _, n := range claimed[1:] {
		if err := os.Remove(jl.segmentPath(n)); err != nil {
			log.Printf("queue: journal: compact: drop segment %d: %v", n, err)
		}
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	// The snapshot now lives in the lowest claimed slot; it is a sealed
	// segment like any other and folds again next time.
	jl.sealed = append(jl.sealed, claimed[0])
	sort.Ints(jl.sealed)
	jl.claimed = nil
	jl.compactions++
	// History below foldedThrough was rewritten: replication cursors
	// minted before this fold no longer resolve there. Persist the new
	// generation before exposing it, so it can never be re-minted by a
	// restart (see journalMetaFile).
	if err := writeJournalMeta(jl.dir, jl.generation+1); err != nil {
		log.Printf("queue: journal: persist generation %d: %v (a crash before the next successful write may let a restarted primary serve stale replication cursors)",
			jl.generation+1, err)
	}
	jl.generation++
	if last := claimed[len(claimed)-1]; last > jl.foldedThrough {
		jl.foldedThrough = last
	}
}

// metrics snapshots the journal's counters.
func (jl *Journal) metrics() api.JournalMetrics {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return api.JournalMetrics{
		Appends:       jl.appends,
		Fsyncs:        jl.fsyncs,
		ReplayedJobs:  jl.replayJobs,
		ReplayedTasks: jl.replayTasks,
		Requeued:      jl.replayRequeued,
		Skipped:       jl.replaySkipped,
		Compactions:   jl.compactions,
		Rotations:     jl.rotations,
		Segments:      len(jl.sealed) + len(jl.claimed) + 1,
		ActiveBytes:   jl.active.Size(),
		StreamReads:   jl.streamReads,
		StreamBytes:   jl.streamBytes,
	}
}

// noteReplay records what startup replay restored.
func (jl *Journal) noteReplay(jobs, tasks, requeued int) {
	jl.mu.Lock()
	jl.replayJobs = jobs
	jl.replayTasks = tasks
	jl.replayRequeued = requeued
	jl.mu.Unlock()
}
