package rowclone

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dram"
)

func newRig(t *testing.T, cfg Config) (*dram.Device, *Engine) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, eng
}

func TestCopyPreservesData(t *testing.T) {
	dev, eng := newRig(t, DefaultConfig())
	src := dram.RowAddr{Bank: 0, Row: 3}
	dst := dram.RowAddr{Bank: 0, Row: 30}
	dev.PokeRow(src, []byte("rowclone-fpm"))
	erred, lat, err := eng.Copy(src, dst)
	if err != nil || erred {
		t.Fatalf("copy: erred=%v err=%v", erred, err)
	}
	if lat != dev.Timing().RowCloneFPM {
		t.Fatalf("latency %v, want %v", lat, dev.Timing().RowCloneFPM)
	}
	got, _ := dev.PeekRow(dst)
	if string(got[:12]) != "rowclone-fpm" {
		t.Fatalf("dst = %q", got[:12])
	}
}

func TestCopyCrossSubarrayRejected(t *testing.T) {
	_, eng := newRig(t, DefaultConfig())
	_, _, err := eng.Copy(dram.RowAddr{Bank: 0, Row: 3}, dram.RowAddr{Bank: 0, Row: 100})
	if !errors.Is(err, ErrCrossSubarray) {
		t.Fatalf("err = %v, want ErrCrossSubarray", err)
	}
}

func TestErrorInjectionRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CopyErrorProb = 0.2
	dev, eng := newRig(t, cfg)
	src := dram.RowAddr{Bank: 0, Row: 3}
	dst := dram.RowAddr{Bank: 0, Row: 30}
	dev.PokeRow(src, []byte{0xAA})
	const n = 5000
	errs := 0
	for i := 0; i < n; i++ {
		erred, _, err := eng.Copy(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if erred {
			errs++
		}
	}
	rate := float64(errs) / n
	if math.Abs(rate-0.2) > 0.03 {
		t.Fatalf("error rate %.3f, want ~0.2", rate)
	}
}

func TestErroneousCopyCorruptsBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CopyErrorProb = 1.0
	cfg.ErrorBits = 1
	dev, eng := newRig(t, cfg)
	src := dram.RowAddr{Bank: 0, Row: 3}
	dst := dram.RowAddr{Bank: 0, Row: 30}
	dev.PokeRow(src, make([]byte, dev.Geometry().RowBytes)) // all zeros
	erred, _, err := eng.Copy(src, dst)
	if err != nil || !erred {
		t.Fatalf("expected forced error, got erred=%v err=%v", erred, err)
	}
	got, _ := dev.PeekRow(dst)
	ones := 0
	for _, b := range got {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("corrupted bits = %d, want exactly 1", ones)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{CopyErrorProb: -0.1, ErrorBits: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative probability must fail")
	}
	bad = Config{CopyErrorProb: 0.1, ErrorBits: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative ErrorBits must fail")
	}
}
