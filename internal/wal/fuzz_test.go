package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// FuzzReplay checks replay over arbitrary bytes and the atomic replace
// over records cut from them.
//
//   - Replay never panics, and Strict mode fails exactly when Lenient
//     mode skips a record — at the first record Lenient skipped, having
//     accepted the same records before it.
//   - For any record list, replaying what WriteFile wrote gives the
//     list back.
//
// The seeds are the torn and corrupt vectors of the journal, rotation
// and disk-cache tests.
func FuzzReplay(f *testing.F) {
	for _, seed := range []string{
		`{"v":"t1","kind":"submit","job":"j1"}` + "\n",
		"not json at all\n",
		`{"v":"qjournal0","kind":"submit","job":"jX"}` + "\n",
		`{"v":"qjournal1","kind":"sub`,
		`{"v":"t1","kind":"submit"}` + "\n" + `{"v":"qjournal1","kind":"sub`,
		"half-written snapshot",
		"\x00\xff not json at all\n{half",
		`{"version":` + "\n" + "** binary junk **\n",
		"\n\n  \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var lenient, strict [][]byte
		keep := func(dst *[][]byte) func([]byte) error {
			return func(rec []byte) error {
				if err := jsonRecord(rec); err != nil {
					return err
				}
				*dst = append(*dst, append([]byte(nil), rec...))
				return nil
			}
		}
		skipped, err := ReplayReader(bytes.NewReader(data), Lenient, keep(&lenient))
		if err != nil {
			t.Fatalf("lenient replay of in-memory bytes failed: %v", err)
		}
		_, serr := ReplayReader(bytes.NewReader(data), Strict, keep(&strict))
		if (serr != nil) != (len(skipped) > 0) {
			t.Fatalf("strict error %v, but lenient skipped %d records", serr, len(skipped))
		}
		if len(skipped) > 0 {
			var re *RecordError
			if !errors.As(serr, &re) || re.Line != skipped[0].Line {
				t.Fatalf("strict stopped with %v, lenient first skipped line %d", serr, skipped[0].Line)
			}
			// Strict accepted exactly the records before the first skip.
			if len(strict) > len(lenient) {
				t.Fatalf("strict accepted %d records, lenient %d", len(strict), len(lenient))
			}
			lenient = lenient[:len(strict)]
		}
		for i := range strict {
			if !bytes.Equal(strict[i], lenient[i]) {
				t.Fatalf("record %d: strict %q, lenient %q", i, strict[i], lenient[i])
			}
		}

		// Records cut from the input: one per line, trimmed, blank lines
		// dropped — exactly what a record may be.
		var records [][]byte
		for _, line := range bytes.Split(data, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				records = append(records, line)
			}
		}
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := WriteFile(path, records); err != nil {
			t.Fatal(err)
		}
		var back [][]byte
		if _, err := Replay(path, Strict, func(rec []byte) error {
			back = append(back, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(back) != len(records) {
			t.Fatalf("replay(rewrite(%d records)) gave %d", len(records), len(back))
		}
		for i := range records {
			if !bytes.Equal(back[i], records[i]) {
				t.Fatalf("record %d: wrote %q, replayed %q", i, records[i], back[i])
			}
		}
	})
}
