// Package wal is how a durable record reaches disk and comes back. The
// broker journal (internal/queue), the disk result cache
// (internal/engine) and the result-plane store (internal/resultplane)
// are newline-delimited record files built from three pieces:
//
//   - Log, an append handle that writes each record and its newline in
//     one write call (processes sharing a file through O_APPEND
//     interleave whole lines) and tracks its size and fsync watermark;
//   - Replay, which hands records back under an explicit Mode: Strict
//     makes the first unusable record an error, Lenient counts it and
//     goes on;
//   - the atomic replace, WriteFile: temp file, fsync, rename.
//
// What a record means, and which Mode a file is read in, stays with the
// store: wal only moves bytes.
package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
)

// TempSuffix names the temp file of an atomic replace. One left behind
// is a replace that died before its rename; the target is intact.
const TempSuffix = ".tmp"

// Log is an append handle over one record file, safe for concurrent
// use. Operations on a closed Log return os.ErrClosed.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	size   int64 // bytes in the file, as this handle knows it
	synced int64 // size at the last successful Sync
}

// Open opens (creating if missing) the record file at path for
// appending. Bytes already in it count as durable.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: size, synced: size}, nil
}

// Append writes rec and its newline with one write call. rec must not
// contain a newline.
func (l *Log) Append(rec []byte) error {
	line := append(append(make([]byte, 0, len(rec)+1), rec...), '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return os.ErrClosed
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	return err
}

// Sync makes every appended byte durable and moves the watermark.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return os.ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.synced = l.size
	return nil
}

// Size reports the bytes in the file.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Synced reports the fsync watermark: the prefix known to be durable.
func (l *Log) Synced() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Close releases the handle; closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteFile atomically replaces the file at path with records, one per
// line: written to path+TempSuffix, fsynced, renamed over path. On
// error path is untouched and the temp file removed.
func WriteFile(path string, records [][]byte) error {
	tmp := path + TempSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, rec := range records {
		w.Write(rec)
		w.WriteByte('\n')
	}
	if err = w.Flush(); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Mode selects how replay treats an unusable record.
type Mode uint8

const (
	// Lenient skips an unusable record, reports it, and goes on: for a
	// tail a crash may have torn, or a cache where a lost record is a
	// miss.
	Lenient Mode = iota
	// Strict ends replay at the first unusable record: for a file that
	// was completely written and fsynced before anyone read it, where
	// damage means lost history.
	Strict
)

// RecordError is one unusable record: its 1-based line number and why
// the decoder refused it.
type RecordError struct {
	Line int
	Err  error
}

func (e *RecordError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

// Replay is ReplayReader over the file at path.
func Replay(path string, mode Mode, decode func(rec []byte) error) (skipped []*RecordError, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReplayReader(f, mode, decode)
}

// ReplayReader hands each record read from r to decode, in order. A
// record is a line with surrounding whitespace trimmed; blank lines are
// not records, and a final line without its newline still is (a torn
// record normally fails to decode). decode returns an error for a
// record it cannot use; rec is valid only during the call. In Strict
// mode the first such error ends replay as a *RecordError; in Lenient
// mode each is collected in skipped. err also reports a failed read.
func ReplayReader(r io.Reader, mode Mode, decode func(rec []byte) error) (skipped []*RecordError, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte // a line longer than the reader's buffer
	for line := 1; ; {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long, chunk...)
			continue
		}
		if err != nil && err != io.EOF {
			return skipped, err
		}
		rec := chunk
		if long != nil {
			rec, long = append(long, chunk...), nil
		}
		if rec = bytes.TrimSpace(rec); len(rec) > 0 {
			if derr := decode(rec); derr != nil {
				bad := &RecordError{Line: line, Err: derr}
				if mode == Strict {
					return skipped, bad
				}
				skipped = append(skipped, bad)
			}
		}
		if err == io.EOF {
			return skipped, nil
		}
		line++
	}
}
