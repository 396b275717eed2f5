package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParse checks the trace text parser behind tracegen -mode replay.
//
//   - Parse never panics.
//   - A trace it accepts writes out with WriteTo and parses back to the
//     same entries.
//
// The seeds are TestParseCommentsAndErrors's vectors and the written
// round-trip trace of TestSerializationRoundTrip.
func FuzzParse(f *testing.F) {
	f.Add(parseCommentsSrc)
	for _, src := range parseErrorCases {
		f.Add(src)
	}
	var buf bytes.Buffer
	if _, err := roundTripTrace().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo of the trace parsed from %q: %v", src, err)
		}
		back, err := Parse(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Parse(%q) accepted %v, but its written form %q fails: %v", src, tr.Entries, out.String(), err)
		}
		if !slices.Equal(back.Entries, tr.Entries) {
			t.Fatalf("Parse(%q) = %v, re-parsed from %q = %v", src, tr.Entries, out.String(), back.Entries)
		}
	})
}
