package rowclone

import (
	"errors"
	"testing"

	"repro/internal/dram"
)

func newRig(t *testing.T) (*dram.Device, *Engine) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	return dev, New(dev)
}

func TestCopyPreservesData(t *testing.T) {
	dev, eng := newRig(t)
	src := dram.RowAddr{Bank: 0, Row: 3}
	dst := dram.RowAddr{Bank: 0, Row: 30}
	dev.PokeRow(src, []byte("rowclone-fpm"))
	lat, err := eng.Copy(src, dst)
	if err != nil {
		t.Fatalf("copy: %v", err)
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
	_, eng := newRig(t)
	_, err := eng.Copy(dram.RowAddr{Bank: 0, Row: 3}, dram.RowAddr{Bank: 0, Row: 100})
	if !errors.Is(err, ErrCrossSubarray) {
		t.Fatalf("err = %v, want ErrCrossSubarray", err)
	}
}
