package controller

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// Stress tests: many re-lock cycles, redirects in every subarray at once
// and long mixed request streams.

func TestRelockSurvivesManyCycles(t *testing.T) {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys, _ := c.Mapper().Untranslate(row, 0)
	c.Write(phys, []byte{0x5A})
	c.LockRow(row)

	// 30 unlock/re-lock cycles: data must survive every round trip.
	for cycle := 0; cycle < 30; cycle++ {
		got, _, err := c.Read(phys, 1)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if got[0] != 0x5A {
			t.Fatalf("cycle %d: data corrupted to %#x", cycle, got[0])
		}
		if c.Stats().Swaps != int64(cycle+1) || c.ActiveRedirects() != 1 {
			t.Fatalf("cycle %d: swaps=%d redirects=%d", cycle, c.Stats().Swaps, c.ActiveRedirects())
		}
		// Let the redirect expire: the data is back in the locked row.
		idle(t, c, RelockInterval)
		if raw := peek(t, dev, row); c.ActiveRedirects() != 0 || raw[0] != 0x5A {
			t.Fatalf("cycle %d: redirects=%d, locked row holds %#x", cycle, c.ActiveRedirects(), raw[0])
		}
	}
}

func TestConcurrentRedirectsAcrossSubarrays(t *testing.T) {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	// One locked row per subarray of bank 0, all swapped out at once.
	geom := dev.Geometry()
	var physAddrs []int64
	for sub := 0; sub < geom.SubarraysPerBank; sub++ {
		row := dram.RowAddr{Bank: 0, Row: sub*geom.RowsPerSubarray + 5}
		phys, _ := c.Mapper().Untranslate(row, 0)
		c.Write(phys, []byte{byte(sub + 1)})
		if err := c.LockRow(row); err != nil {
			t.Fatal(err)
		}
		physAddrs = append(physAddrs, phys)
	}
	for i, phys := range physAddrs {
		got, _, err := c.Read(phys, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats().Swaps != int64(i+1) || got[0] != byte(i+1) {
			t.Fatalf("subarray %d: swaps=%d data=%#x", i, c.Stats().Swaps, got[0])
		}
	}
	if c.ActiveRedirects() != geom.SubarraysPerBank {
		t.Fatalf("redirects = %d, want %d", c.ActiveRedirects(), geom.SubarraysPerBank)
	}
	// All still readable through their redirects.
	for i, phys := range physAddrs {
		got, _, err := c.Read(phys, 1)
		if err != nil || got[0] != byte(i+1) {
			t.Fatalf("redirected read %d failed: %v %v", i, got, err)
		}
	}
}

// TestRandomizedMixedStreamInvariants drives a long random mix of
// privileged reads/writes, attacker probes and hammer attempts, checking
// global invariants after every step.
func TestRandomizedMixedStreamInvariants(t *testing.T) {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	geom := dev.Geometry()

	// Shadow model of written data: phys -> byte.
	written := make(map[int64]byte)
	// As many locked rows in subarray 0 as its free pool can redirect at
	// once.
	lockedRows := map[int]bool{}
	for r := 5; len(lockedRows) < FreeRowsPerSubarray; r += 3 {
		row := dram.RowAddr{Bank: 0, Row: r}
		if err := c.LockRow(row); err != nil {
			t.Fatal(err)
		}
		lockedRows[geom.LinearIndex(row)] = true
	}

	// Several RelockInterval spans, so redirects expire mid-stream.
	for step := 0; step < 6*RelockInterval; step++ {
		row := dram.RowAddr{Bank: rng.Intn(geom.Banks()), Row: rng.Intn(40)}
		if c.IsReserved(row) {
			continue
		}
		phys, err := c.Mapper().Untranslate(row, rng.Intn(geom.RowBytes-1))
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(4) {
		case 0: // privileged write
			v := byte(rng.Intn(256))
			if _, err := c.Write(phys, []byte{v}); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			written[phys] = v
		case 1: // privileged read must observe last write
			got, _, err := c.Read(phys, 1)
			if err != nil {
				t.Fatalf("step %d: read: %v", step, err)
			}
			if want, ok := written[phys]; ok && got[0] != want {
				t.Fatalf("step %d: phys 0x%x = %#x, want %#x", step, phys, got[0], want)
			}
		case 2: // attacker probe
			resp, err := c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 1})
			if err != nil {
				t.Fatalf("step %d: probe: %v", step, err)
			}
			if lockedRows[geom.LinearIndex(row)] && c.ActiveRedirects() == 0 && !resp.Denied {
				// With no live redirect the locked row must deny.
				if c.Table().IsLocked(row) {
					t.Fatalf("step %d: locked row %v not denied", step, row)
				}
			}
		case 3: // hammer attempt
			activated, _, err := c.HammerAttempt(row)
			if err != nil {
				t.Fatalf("step %d: hammer: %v", step, err)
			}
			if activated && c.Table().IsLocked(row) {
				t.Fatalf("step %d: hammer activated locked row %v", step, row)
			}
		}
	}
}
