package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	src := newToySource(32, 8)
	m := NewResNet20(2, 0.25, 77)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	Fit(m, src, cfg)

	var buf bytes.Buffer
	if err := SaveCheckpoint(m, &buf); err != nil {
		t.Fatal(err)
	}

	m2 := NewResNet20(2, 0.25, 999) // different init, same architecture
	if err := LoadCheckpoint(m2, &buf); err != nil {
		t.Fatal(err)
	}

	// Same weights, same BN stats: identical inference outputs.
	rng := stats.NewRNG(5)
	x := tensor.New(4, 3, 8, 8)
	x.RandNormal(rng, 1)
	a := m.Forward(x, false)
	b := m2.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("logit %d: %g != %g", i, a.Data[i], b.Data[i])
		}
	}
}

func TestCheckpointArchMismatch(t *testing.T) {
	m := NewResNet20(2, 0.25, 1)
	var buf bytes.Buffer
	if err := SaveCheckpoint(m, &buf); err != nil {
		t.Fatal(err)
	}
	wrongWidth := NewResNet20(2, 0.5, 1)
	if err := LoadCheckpoint(wrongWidth, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading into a wider model must fail")
	}
	wrongArch := NewVGG11(2, 0.25, 1)
	if err := LoadCheckpoint(wrongArch, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading into a different architecture must fail")
	}
}

func TestCheckpointCorruptHeader(t *testing.T) {
	m := NewResNet20(2, 0.25, 1)
	if err := LoadCheckpoint(m, strings.NewReader("XXXX garbage")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if err := LoadCheckpoint(m, strings.NewReader("DL")); err == nil {
		t.Fatal("truncated magic must fail")
	}
}

func TestCheckpointTruncatedPayload(t *testing.T) {
	m := NewResNet20(2, 0.25, 1)
	var buf bytes.Buffer
	if err := SaveCheckpoint(m, &buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if err := LoadCheckpoint(NewResNet20(2, 0.25, 1), bytes.NewReader(half)); err == nil {
		t.Fatal("truncated checkpoint must fail")
	}
}

// TestCheckpointBytesPinned pins the checkpoint format to the bytes the
// per-value encoder wrote, for one fixed-seed model whose BatchNorm
// statistics are set away from their 0/1 defaults, and bounds the
// allocations of a save and a load: each tensor moves in one call, so
// the count grows with the number of tensors, not of values. The model's
// initial weights are drawn through math.Log, whose amd64 assembly may
// round differently from other ports, so the digest is checked on amd64
// only.
func TestCheckpointBytesPinned(t *testing.T) {
	m := NewResNet20(10, 0.25, 2024)
	for k, bn := range m.BatchNorms() {
		for i := range bn.RunningMean {
			bn.RunningMean[i] = float64(k) + float64(i)/7
			bn.RunningVar[i] = 1 + float64(k*i)/3
		}
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(m, &buf); err != nil {
		t.Fatal(err)
	}
	const want = "e9fa2c6bed6911d1f626af62e8ef8b5b815082cf603b57d91b1b109316eeb993"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); runtime.GOARCH == "amd64" && got != want {
		t.Fatalf("checkpoint SHA-256 %s, want %s", got, want)
	}

	tensors := len(m.Params()) + len(m.BatchNorms())
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := SaveCheckpoint(m, &buf); err != nil {
			t.Fatal(err)
		}
		if err := LoadCheckpoint(m, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(16 * tensors); allocs > limit {
		t.Fatalf("save+load: %.0f allocations for %d tensors, want at most %.0f", allocs, tensors, limit)
	}
}
