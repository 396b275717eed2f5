package faultinject

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadPlan writes arbitrary bytes as a plan file and loads it. It
// never panics; an accepted plan re-marshals and reloads to an equal
// Plan; and an Injector built from it evaluates a fixed set of fault
// points, each several times so After, Count and Prob advance, without
// panicking.
func FuzzLoadPlan(f *testing.F) {
	for _, seed := range []string{
		`{"seed": 7, "rules": [
			{"point": "server.poll", "kind": "drop", "prob": 0.5, "count": 3},
			{"point": "client.*", "kind": "delay", "delay_ms": 10}
		]}`,
		`{"seed": 1337, "rules": [
			{"point": "server.poll", "kind": "drop", "prob": 0.35, "count": 20},
			{"point": "server.done", "kind": "drop", "count": 2},
			{"point": "server.done", "kind": "delay", "delay_ms": 400, "count": 50}
		]}`,
		`{"seed": 7, "rules": [{"point": "journal.append.done", "kind": "torn", "count": 1}]}`,
		`{"seed": 3, "rules": [{"point": "client.*", "kind": "disconnect", "after": 2}, {"point": "*", "kind": "error"}]}`,
		`{"seed": 1, "rules": []}`,
		`{"rules": [{"point": "a", "kind": "explode"}]}`,
		`{"rules": [{"point": "a", "kind": "delay"}]}`,
		`{"rules": [{"point": "a", "kind": "drop", "prob": 2}]}`,
		`{"rules": [{"point": "[", "kind": "drop"}]}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	points := []string{"server.poll", "client.done", "journal.append.submit"}

	f.Fuzz(func(t *testing.T, data []byte) {
		file := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadPlan(file)
		if err != nil {
			return
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal accepted plan %+v: %v", p, err)
		}
		if err := os.WriteFile(file, again, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := LoadPlan(file)
		if err != nil {
			t.Fatalf("accepted plan %q re-marshalled to %s, which is refused: %v", data, again, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("plan %+v reloaded as %+v", p, q)
		}
		in := New(p)
		for range 4 {
			for _, point := range points {
				in.Eval(point)
			}
		}
	})
}
