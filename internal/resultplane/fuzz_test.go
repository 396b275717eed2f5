package resultplane

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPlaneOpen reloads arbitrary bytes as plane.jsonl.
//
//   - Open never panics.
//   - Every loaded entry has a key and data.
//   - Metrics agree with the loaded entries: their count and bytes.
//   - A store closed and reopened serves the same entries, byte for
//     byte.
//
// The seeds are the plane file older code wrote
// (internal/wal/testdata/parent/plane) and the torn and corrupt lines
// of the record-log tests.
func FuzzPlaneOpen(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "parent", "plane", planeFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	for _, seed := range []string{
		`{"key":"a","data":{"version":"v1","key":"a","result":{"name":"a","text":"alpha"}}}` + "\n",
		"not json at all\n",
		`{"key":"a","data":{"ver`,
		`{"key":"","data":{"v":1}}` + "\n" + `{"key":"b"}` + "\n",
		`{"key":"a","data": { "spaced" : "<html>" } }` + "\n",
		"\x00\xff not json at all\n{half",
		"\n\n  \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, planeFile), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var bytesStored int64
		for key, data := range s.entries {
			if key == "" || len(data) == 0 {
				t.Fatalf("loaded entry %q with %d data bytes", key, len(data))
			}
			bytesStored += int64(len(data))
		}
		if m := s.Metrics(); m.Entries != int64(len(s.entries)) || m.BytesStored != bytesStored {
			t.Fatalf("metrics say %d entries of %d bytes, loaded %d of %d",
				m.Entries, m.BytesStored, len(s.entries), bytesStored)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		if len(back.entries) != len(s.entries) {
			t.Fatalf("store reopened with %d entries, had %d", len(back.entries), len(s.entries))
		}
		for key, data := range s.entries {
			if got, ok := back.entries[key]; !ok || !bytes.Equal(got, data) {
				t.Fatalf("entry %q: reopened %q (found %v), had %q", key, got, ok, data)
			}
		}
	})
}
