package controller

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dram"
)

func newCtl(t *testing.T, mut func(*Config)) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RelockInterval = 10
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// physOf returns a physical address inside the given row.
func physOf(t *testing.T, c *Controller, row dram.RowAddr, col int) int64 {
	t.Helper()
	p, err := c.Mapper().Untranslate(row, col)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadWriteRoundTrip(t *testing.T) {
	c := newCtl(t, nil)
	phys := physOf(t, c, dram.RowAddr{Bank: 0, Row: 5}, 16)
	if _, err := c.Write(phys, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, resp, err := c.Read(phys, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("read %q", got)
	}
	if resp.Denied || resp.Swapped {
		t.Fatalf("unexpected flags: %+v", resp)
	}
}

func TestRowHitVsMissLatency(t *testing.T) {
	c := newCtl(t, nil)
	phys := physOf(t, c, dram.RowAddr{Bank: 0, Row: 5}, 0)
	_, first, err := c.Read(phys, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := c.Read(phys+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !second.RowHit || first.RowHit {
		t.Fatalf("rowhit flags: first=%v second=%v", first.RowHit, second.RowHit)
	}
	if second.Latency >= first.Latency {
		t.Fatalf("row hit (%v) must be faster than miss (%v)", second.Latency, first.Latency)
	}
}

func TestUnprivilegedDeniedOnLockedRow(t *testing.T) {
	c := newCtl(t, nil)
	row := dram.RowAddr{Bank: 0, Row: 5}
	if err := c.LockRow(row); err != nil {
		t.Fatal(err)
	}
	phys := physOf(t, c, row, 0)
	resp, err := c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 4, Privileged: false})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Denied {
		t.Fatal("unprivileged access to locked row must be denied")
	}
	// Denied instructions cost only the lock-table lookup.
	if resp.Latency != c.Device().Timing().LockLookup {
		t.Fatalf("denied latency = %v, want lookup only", resp.Latency)
	}
	if c.Stats().Denied != 1 {
		t.Fatalf("denied stat = %d", c.Stats().Denied)
	}
}

func TestPrivilegedAccessSwapsOut(t *testing.T) {
	c := newCtl(t, nil)
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys := physOf(t, c, row, 0)
	if _, err := c.Write(phys, []byte("secret!")); err != nil {
		t.Fatal(err)
	}
	if err := c.LockRow(row); err != nil {
		t.Fatal(err)
	}
	got, resp, err := c.Read(phys, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Swapped {
		t.Fatal("first privileged access to a locked row must SWAP")
	}
	if string(got) != "secret!" {
		t.Fatalf("data after swap = %q", got)
	}
	if c.ActiveRedirects() != 1 {
		t.Fatalf("redirects = %d", c.ActiveRedirects())
	}
	// The lock still denies the attacker while the data is swapped out.
	if aresp, _ := c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 1}); !aresp.Denied {
		t.Fatal("lock must hold while the row is swapped out")
	}
	// Subsequent access uses the redirect without another swap.
	got2, resp2, err := c.Read(phys, 7)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Swapped {
		t.Fatal("second access must reuse the redirect")
	}
	if string(got2) != "secret!" {
		t.Fatalf("redirected read = %q", got2)
	}
}

func TestRelockSwapsBackAndRestoresData(t *testing.T) {
	c := newCtl(t, func(cfg *Config) { cfg.RelockInterval = 3 })
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys := physOf(t, c, row, 0)
	c.Write(phys, []byte("data"))
	c.LockRow(row)
	if _, _, err := c.Read(phys, 4); err != nil { // triggers swap
		t.Fatal(err)
	}
	// Drive the countdown with unrelated traffic.
	other := physOf(t, c, dram.RowAddr{Bank: 1, Row: 40}, 0)
	for i := 0; i < 4; i++ {
		if _, _, err := c.Read(other, 1); err != nil {
			t.Fatal(err)
		}
	}
	if c.ActiveRedirects() != 0 {
		t.Fatalf("redirect must expire, have %d", c.ActiveRedirects())
	}
	if c.Stats().SwapsBack != 1 {
		t.Fatalf("swaps back = %d", c.Stats().SwapsBack)
	}
	// Data is back in the original (still locked) row.
	raw, err := c.Device().PeekRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[:4], []byte("data")) {
		t.Fatalf("original row holds %q after re-lock", raw[:4])
	}
	// And the lock still holds for attackers.
	resp, _ := c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 1})
	if !resp.Denied {
		t.Fatal("lock must persist after re-lock")
	}
}

func TestHammerAttemptDeniedOnLockedRow(t *testing.T) {
	c := newCtl(t, nil)
	row := dram.RowAddr{Bank: 0, Row: 5}
	c.LockRow(row)
	activated, lat, err := c.HammerAttempt(row)
	if err != nil {
		t.Fatal(err)
	}
	if activated {
		t.Fatal("hammer on locked row must be denied")
	}
	if lat != c.Device().Timing().LockLookup {
		t.Fatalf("denied hammer latency = %v", lat)
	}
	// Unlocked rows activate normally.
	activated, _, err = c.HammerAttempt(dram.RowAddr{Bank: 0, Row: 7})
	if err != nil || !activated {
		t.Fatalf("hammer on free row: activated=%v err=%v", activated, err)
	}
	if c.Device().Stats().Activates != 1 {
		t.Fatalf("activations = %d", c.Device().Stats().Activates)
	}
}

func TestReservedRowsRejectLocks(t *testing.T) {
	c := newCtl(t, nil)
	geom := c.Device().Geometry()
	buffer := dram.RowAddr{Bank: 0, Row: geom.RowsPerSubarray - 1}
	if !c.IsReserved(buffer) {
		t.Fatal("last subarray row must be reserved")
	}
	if err := c.LockRow(buffer); !errors.Is(err, ErrReservedRow) {
		t.Fatalf("err = %v, want ErrReservedRow", err)
	}
}

func TestLockNeighborsOf(t *testing.T) {
	c := newCtl(t, nil)
	row := dram.RowAddr{Bank: 0, Row: 10}
	phys := physOf(t, c, row, 0)
	locked, err := c.LockNeighborsOf(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(locked) != 2 {
		t.Fatalf("locked %v, want 2 neighbors", locked)
	}
	for _, n := range locked {
		if !c.Table().IsLocked(n) {
			t.Fatalf("%v not locked", n)
		}
	}
	// The data row itself stays unlocked.
	if c.Table().IsLocked(row) {
		t.Fatal("data row must not be locked")
	}
}

func TestFreePoolExhaustion(t *testing.T) {
	c := newCtl(t, func(cfg *Config) {
		cfg.FreeRowsPerSubarray = 2
		cfg.RelockInterval = 1000
	})
	// Lock three rows in the same subarray and touch each: the third
	// swap has no free destination.
	var errSeen error
	for i, r := range []int{5, 7, 9} {
		row := dram.RowAddr{Bank: 0, Row: r}
		if err := c.LockRow(row); err != nil {
			t.Fatal(err)
		}
		phys := physOf(t, c, row, 0)
		_, _, err := c.Read(phys, 1)
		if i < 2 && err != nil {
			t.Fatalf("swap %d failed early: %v", i, err)
		}
		if i == 2 {
			errSeen = err
		}
	}
	if !errors.Is(errSeen, ErrNoFreeRow) {
		t.Fatalf("err = %v, want ErrNoFreeRow", errSeen)
	}
}

// TestSwapDestRoundRobin: each SWAP in a subarray takes the next free-pool
// row after the previous SWAP's, wrapping around the pool, even when an
// earlier row has been released by a swap-back.
func TestSwapDestRoundRobin(t *testing.T) {
	c := newCtl(t, func(cfg *Config) { cfg.RelockInterval = 3 })
	last := c.Device().Geometry().RowsPerSubarray - 2 // the first free-pool row
	other := physOf(t, c, dram.RowAddr{Bank: 1, Row: 40}, 0)
	for i, r := range []int{5, 7, 9, 11, 13} {
		row := dram.RowAddr{Bank: 0, Row: r}
		phys := physOf(t, c, row, 0)
		c.Write(phys, []byte{byte('a' + i)})
		c.LockRow(row)
		if _, resp, err := c.Read(phys, 1); err != nil || !resp.Swapped {
			t.Fatalf("swap %d: swapped=%v err=%v", i, resp.Swapped, err)
		}
		dest := dram.RowAddr{Bank: 0, Row: last - i%c.cfg.FreeRowsPerSubarray}
		if got, _ := c.Device().PeekRow(dest); got[0] != byte('a'+i) {
			t.Fatalf("swap %d: %v holds %q, want %q", i, dest, got[0], 'a'+i)
		}
		// Release the destination: RelockInterval+1 requests expire the
		// redirect, which swaps the data back.
		for range c.cfg.RelockInterval + 1 {
			if _, _, err := c.Read(other, 1); err != nil {
				t.Fatal(err)
			}
		}
		if c.ActiveRedirects() != 0 {
			t.Fatalf("swap %d: redirect still live", i)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	c := newCtl(t, nil)
	// Zero-length read.
	if _, err := c.Submit(Request{Kind: ReqRead, Phys: 0, Len: 0, Privileged: true}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	// Crossing a row boundary.
	rb := c.Device().Geometry().RowBytes
	if _, err := c.Submit(Request{Kind: ReqRead, Phys: int64(rb - 2), Len: 4, Privileged: true}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	// Bad physical address.
	if _, err := c.Submit(Request{Kind: ReqRead, Phys: -5, Len: 1, Privileged: true}); err == nil {
		t.Fatal("negative address must fail")
	}
}

func TestConfigValidation(t *testing.T) {
	dev, _ := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	bad := DefaultConfig()
	bad.RelockInterval = 0
	if _, err := New(dev, bad); err == nil {
		t.Fatal("zero relock interval must fail")
	}
	bad = DefaultConfig()
	bad.FreeRowsPerSubarray = 1000 // exceeds subarray
	if _, err := New(dev, bad); err == nil {
		t.Fatal("oversized free pool must fail")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newCtl(t, nil)
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys := physOf(t, c, row, 0)
	c.Write(phys, []byte("x"))
	c.LockRow(row)
	c.Read(phys, 1)                                      // swap + read
	c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 1}) // denied
	st := c.Stats()
	// The denied request never completes, so it is not counted as a read.
	if st.Swaps != 1 || st.Denied != 1 || st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalLatency <= 0 || st.SwapLatency <= 0 {
		t.Fatal("latency accounting missing")
	}
}
