package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonRecord is the decoder the tests replay with: a record must be a
// JSON object whose "v" field is "t1", the shape every store in this
// repository checks (valid JSON, current version).
func jsonRecord(rec []byte) error {
	var v struct {
		V string `json:"v"`
	}
	if err := json.Unmarshal(rec, &v); err != nil {
		return err
	}
	if v.V != "t1" {
		return fmt.Errorf("version %q", v.V)
	}
	return nil
}

// collect replays path and returns the records decode accepted.
func collect(t *testing.T, path string, mode Mode) ([]string, []*RecordError, error) {
	t.Helper()
	var got []string
	skipped, err := Replay(path, mode, func(rec []byte) error {
		if err := jsonRecord(rec); err != nil {
			return err
		}
		got = append(got, string(rec))
		return nil
	})
	return got, skipped, err
}

func TestAppendSyncReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []string{`{"v":"t1","n":1}`, `{"v":"t1","n":2}`}
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(recs[0]) + len(recs[1]) + 2)
	if l.Size() != want || l.Synced() != 0 {
		t.Fatalf("size %d synced %d, want %d and 0 before Sync", l.Size(), l.Synced(), want)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Synced() != want {
		t.Fatalf("watermark %d after Sync, want %d", l.Synced(), want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{}`)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after close: %v, want os.ErrClosed", err)
	}

	got, skipped, err := collect(t, path, Strict)
	if err != nil || len(skipped) != 0 || strings.Join(got, "|") != strings.Join(recs, "|") {
		t.Fatalf("replay = %q %v %v, want %q", got, skipped, err, recs)
	}
	// Reopening picks up the existing size as durable.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != want || l2.Synced() != want {
		t.Fatalf("reopened size %d synced %d, want %d", l2.Size(), l2.Synced(), want)
	}
}

// TestReplayModes: the same damaged file is an error in Strict mode at
// the first bad record and a list of skips in Lenient mode; blank lines
// are not records, and an unterminated tail is still offered.
func TestReplayModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	body := `{"v":"t1","n":1}` + "\n" +
		"\n   \n" +
		"not json at all\n" +
		`{"v":"t0","n":2}` + "\n" +
		`{"v":"t1","n":3}` + "\n" +
		`{"v":"t1","n":4}` // intact, just missing its newline
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := collect(t, path, Strict)
	var re *RecordError
	if !errors.As(err, &re) || re.Line != 4 {
		t.Fatalf("strict replay error = %v, want a RecordError at line 4", err)
	}
	got, skipped, err := collect(t, path, Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(skipped) != 2 || skipped[0].Line != 4 || skipped[1].Line != 5 {
		t.Fatalf("lenient replay = %q, skips %v", got, skipped)
	}
	if _, err := Replay(filepath.Join(t.TempDir(), "missing"), Lenient, jsonRecord); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v, want not-exist", err)
	}
}

// TestReplayLongRecord: a record far past the reader's buffer comes
// back whole.
func TestReplayLongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	long := `{"v":"t1","pad":"` + strings.Repeat("x", 300<<10) + `"}`
	if err := WriteFile(path, [][]byte{[]byte(long), []byte(`{"v":"t1"}`)}); err != nil {
		t.Fatal(err)
	}
	got, _, err := collect(t, path, Strict)
	if err != nil || len(got) != 2 || got[0] != long {
		t.Fatalf("long record replay: %d records, %v", len(got), err)
	}
}

func TestWriteFileLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta")
	if err := WriteFile(path, [][]byte{[]byte(`{"v":"t1"}`)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(raw, []byte("{\"v\":\"t1\"}\n")) {
		t.Fatalf("written %q %v", raw, err)
	}
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// A directory in the way of the rename fails cleanly, temp removed.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, nil); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if _, err := os.Stat(blocked + TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after a failed replace: %v", err)
	}
}
