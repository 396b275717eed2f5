package api

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckProto(t *testing.T) {
	if err := CheckProto(Version); err != nil {
		t.Fatal(err)
	}
	if err := CheckProto("dlexec0"); err == nil {
		t.Fatal("foreign protocol version must be rejected")
	}
	if err := CheckProto(""); err == nil {
		t.Fatal("missing protocol version must be rejected")
	}
}

func TestTaskSpecValidate(t *testing.T) {
	ok := TaskSpec{Proto: Version, Job: "tiny/mc", Shard: 0, Seed: 7, Key: "mc@abc"}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		desc string
		spec TaskSpec
	}{
		{"wrong proto", TaskSpec{Proto: "nope", Job: "j", Shard: 0}},
		{"no job", TaskSpec{Proto: Version, Shard: 0}},
		// -1 was an older build's whole-job sentinel; every task is a
		// shard now, so no negative index is well-formed.
		{"negative shard", TaskSpec{Proto: Version, Job: "tiny/fig8a", Shard: -1}},
		{"shard below -1", TaskSpec{Proto: Version, Job: "j", Shard: -2}},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: must fail validation", c.desc)
			continue
		}
		if ae, ok := AsError(err); !ok || (ae.Code != CodeBadRequest && ae.Code != CodeProtoMismatch) {
			t.Errorf("%s: error %v is not a typed refusal", c.desc, err)
		}
	}
}

func TestTaskResultValidateEcho(t *testing.T) {
	spec := TaskSpec{Proto: Version, Job: "tiny/mc", Shard: 2, Seed: 9, Key: "mc@abc"}
	ok := TaskResult{Proto: Version, Job: "tiny/mc", Shard: 2, Key: "mc@abc"}
	if err := ok.Validate(spec); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		desc string
		res  TaskResult
		frag string
	}{
		{"wrong proto", TaskResult{Proto: "old", Job: "tiny/mc", Shard: 2, Key: "mc@abc"}, "protocol version"},
		{"wrong job", TaskResult{Proto: Version, Job: "tiny/fig8a", Shard: 2, Key: "mc@abc"}, "answers"},
		{"wrong shard", TaskResult{Proto: Version, Job: "tiny/mc", Shard: 0, Key: "mc@abc"}, "answers"},
		{"key mismatch", TaskResult{Proto: Version, Job: "tiny/mc", Shard: 2, Key: "mc@OTHER"}, "cache-key echo mismatch"},
	}
	for _, c := range cases {
		err := c.res.Validate(spec)
		if err == nil {
			t.Errorf("%s: must fail validation", c.desc)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.desc, err, c.frag)
		}
	}
}

// TestWireRoundTrip pins the JSON shape: a spec/result survives a
// marshal/unmarshal cycle unchanged, and the raw Data payload keeps its
// exact bytes (the byte-identity guarantee depends on it).
func TestWireRoundTrip(t *testing.T) {
	spec := TaskSpec{Proto: Version, Job: "tiny/table2", Shard: 3, Seed: 0xfeed, Key: "table2@1234"}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var spec2 TaskSpec
	if err := json.Unmarshal(b, &spec2); err != nil {
		t.Fatal(err)
	}
	if spec2 != spec {
		t.Fatalf("spec round-trip changed: %+v vs %+v", spec2, spec)
	}

	raw := json.RawMessage(`{"rows":[1,2,3],"label":"x"}`)
	res := TaskResult{
		Proto: Version, Job: "tiny/table2", Shard: 3,
		Text: "row\n", Data: raw, DurationNS: 12345, Key: "table2@1234", Worker: "w1",
	}
	b, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var res2 TaskResult
	if err := json.Unmarshal(b, &res2); err != nil {
		t.Fatal(err)
	}
	if string(res2.Data) != string(raw) {
		t.Fatalf("Data bytes changed across the wire: %s vs %s", res2.Data, raw)
	}
	if res2.Text != res.Text || res2.DurationNS != res.DurationNS || res2.Worker != res.Worker {
		t.Fatalf("result round-trip changed: %+v vs %+v", res2, res)
	}
}

func TestJobSubmitBatchValidate(t *testing.T) {
	ok := JobSubmit{Proto: Version, Tasks: []TaskSpec{
		{Proto: Version, Job: "j", Seed: 1, Key: "j@hash"},
	}}
	if err := (JobSubmitBatch{Proto: Version, Jobs: []JobSubmit{ok}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (JobSubmitBatch{Proto: "dlexec0", Jobs: []JobSubmit{ok}}).Validate(); err == nil {
		t.Fatal("foreign proto must be rejected")
	}
	if err := (JobSubmitBatch{Proto: Version}).Validate(); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	// A bad job fails the envelope and names its index, so the submitter
	// can see which of its jobs is malformed.
	err := (JobSubmitBatch{Proto: Version, Jobs: []JobSubmit{ok, {Proto: Version}}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("want the bad job's index in the error, got %v", err)
	}
}

func TestCodesEnumerationComplete(t *testing.T) {
	// Codes() is the wire-contract enumeration; every code must have an
	// explicit retry decision and appear exactly once.
	seen := make(map[Code]bool)
	for _, c := range Codes() {
		if seen[c] {
			t.Fatalf("code %s listed twice", c)
		}
		seen[c] = true
		if _, ok := retryableByCode[c]; !ok {
			t.Fatalf("code %s has no retryability entry", c)
		}
	}
	if len(seen) != len(retryableByCode) {
		t.Fatalf("Codes() lists %d codes, retryableByCode has %d", len(seen), len(retryableByCode))
	}
}
