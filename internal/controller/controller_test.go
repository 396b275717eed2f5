package controller

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dram"
)

func newCtl(t *testing.T) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// idle submits n privileged reads of a row no test locks, each one R/W
// instruction toward the re-lock countdowns.
func idle(t *testing.T, c *Controller, n int) {
	t.Helper()
	other := physOf(t, c, dram.RowAddr{Bank: 1, Row: 40}, 0)
	for range n {
		if _, _, err := c.Read(other, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// peek returns a copy of row a.
func peek(t *testing.T, dev *dram.Device, a dram.RowAddr) []byte {
	t.Helper()
	row := make([]byte, dev.Geometry().RowBytes)
	if err := dev.PeekRow(a, row); err != nil {
		t.Fatal(err)
	}
	return row
}

// activations counts the activations that reach the array.
type activations int

func (a *activations) ObserveActivate(dram.RowAddr, dram.Picoseconds) { *a++ }

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
	c := newCtl(t)
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
	if resp.Denied || c.Stats().Swaps != 0 {
		t.Fatalf("unlocked row: denied=%v swaps=%d", resp.Denied, c.Stats().Swaps)
	}
}

func TestRowHitVsMissLatency(t *testing.T) {
	c := newCtl(t)
	phys := physOf(t, c, dram.RowAddr{Bank: 0, Row: 5}, 0)
	_, first, err := c.Read(phys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RowMisses != 1 || st.RowHits != 0 {
		t.Fatalf("first access: %d misses, %d hits; want a miss", st.RowMisses, st.RowHits)
	}
	_, second, err := c.Read(phys+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("second access: %d misses, %d hits; want a hit", st.RowMisses, st.RowHits)
	}
	if second.Latency >= first.Latency {
		t.Fatalf("row hit (%v) must be faster than miss (%v)", second.Latency, first.Latency)
	}
}

func TestUnprivilegedDeniedOnLockedRow(t *testing.T) {
	c := newCtl(t)
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
	c := newCtl(t)
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
	if c.Stats().Swaps != 1 {
		t.Fatal("first privileged access to a locked row must SWAP")
	}
	if resp.Latency <= c.Device().Timing().SwapLatency() {
		t.Fatalf("latency %v must include the SWAP", resp.Latency)
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
	if c.Stats().Swaps != 1 || resp2.Latency >= c.Device().Timing().SwapLatency() {
		t.Fatalf("second access must reuse the redirect: swaps=%d latency=%v", c.Stats().Swaps, resp2.Latency)
	}
	if string(got2) != "secret!" {
		t.Fatalf("redirected read = %q", got2)
	}
}

func TestRelockSwapsBackAndRestoresData(t *testing.T) {
	c := newCtl(t)
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys := physOf(t, c, row, 0)
	c.Write(phys, []byte("data"))
	c.LockRow(row)
	if _, _, err := c.Read(phys, 4); err != nil { // triggers swap
		t.Fatal(err)
	}
	// While swapped out, the data lives in a free-pool row and the
	// locked row holds what was in it.
	if raw := peek(t, c.Device(), row); bytes.Equal(raw[:4], []byte("data")) {
		t.Fatal("SWAP left the data in the locked row")
	}
	// Drive the countdown with unrelated traffic: the redirect lives for
	// RelockInterval R/W instructions.
	idle(t, c, RelockInterval-1)
	if c.ActiveRedirects() != 1 {
		t.Fatalf("redirect expired early, have %d", c.ActiveRedirects())
	}
	idle(t, c, 1)
	if c.ActiveRedirects() != 0 {
		t.Fatalf("redirect must expire, have %d", c.ActiveRedirects())
	}
	// Data is back in the original (still locked) row.
	if raw := peek(t, c.Device(), row); !bytes.Equal(raw[:4], []byte("data")) {
		t.Fatalf("original row holds %q after re-lock", raw[:4])
	}
	// And the lock still holds for attackers.
	resp, _ := c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 1})
	if !resp.Denied {
		t.Fatal("lock must persist after re-lock")
	}
}

func TestHammerAttemptDeniedOnLockedRow(t *testing.T) {
	c := newCtl(t)
	var acts activations
	c.Device().AddActivateObserver(&acts)
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
	if acts != 1 {
		t.Fatalf("activations = %d", acts)
	}
}

func TestReservedRowsRejectLocks(t *testing.T) {
	c := newCtl(t)
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
	c := newCtl(t)
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
	c := newCtl(t)
	// Lock one row more than the free pool holds in the same subarray and
	// touch each: the last swap has no free destination.
	var errSeen error
	for i := range FreeRowsPerSubarray + 1 {
		row := dram.RowAddr{Bank: 0, Row: 5 + 2*i}
		if err := c.LockRow(row); err != nil {
			t.Fatal(err)
		}
		phys := physOf(t, c, row, 0)
		_, _, err := c.Read(phys, 1)
		if i < FreeRowsPerSubarray && err != nil {
			t.Fatalf("swap %d failed early: %v", i, err)
		}
		if i == FreeRowsPerSubarray {
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
	c := newCtl(t)
	last := c.Device().Geometry().RowsPerSubarray - 2 // the first free-pool row
	for i, r := range []int{5, 7, 9, 11, 13} {
		row := dram.RowAddr{Bank: 0, Row: r}
		phys := physOf(t, c, row, 0)
		c.Write(phys, []byte{byte('a' + i)})
		c.LockRow(row)
		if _, _, err := c.Read(phys, 1); err != nil || c.Stats().Swaps != int64(i+1) {
			t.Fatalf("swap %d: swaps=%d err=%v", i, c.Stats().Swaps, err)
		}
		dest := dram.RowAddr{Bank: 0, Row: last - i%FreeRowsPerSubarray}
		if got := peek(t, c.Device(), dest); got[0] != byte('a'+i) {
			t.Fatalf("swap %d: %v holds %q, want %q", i, dest, got[0], 'a'+i)
		}
		// Release the destination: RelockInterval requests expire the
		// redirect, which swaps the data back.
		idle(t, c, RelockInterval)
		if c.ActiveRedirects() != 0 {
			t.Fatalf("swap %d: redirect still live", i)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	c := newCtl(t)
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

// TestConfigValidation: the device's subarrays must leave rows beyond
// the reserved buffer and free-pool rows.
func TestConfigValidation(t *testing.T) {
	geom := dram.SmallGeometry()
	geom.RowsPerSubarray = FreeRowsPerSubarray + 1
	dev, _ := dram.NewDevice(geom, dram.DDR4Timing())
	if _, err := New(dev); err == nil {
		t.Fatal("a subarray of reserved rows only must fail")
	}
	geom.RowsPerSubarray++
	dev, _ = dram.NewDevice(geom, dram.DDR4Timing())
	if _, err := New(dev); err != nil {
		t.Fatalf("one data row per subarray: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newCtl(t)
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys := physOf(t, c, row, 0)
	var total dram.Picoseconds
	resp, _ := c.Write(phys, []byte("x"))
	total += resp.Latency
	c.LockRow(row)
	_, resp, _ = c.Read(phys, 1) // swap + read
	total += resp.Latency
	resp, _ = c.Submit(Request{Kind: ReqRead, Phys: phys, Len: 1}) // denied
	total += resp.Latency
	st := c.Stats()
	if st.Instructions != 3 || st.Swaps != 1 || st.Denied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The write opened the row and the swapped read opened its
	// destination; the denied request reached no row.
	if st.RowMisses != 2 || st.RowHits != 0 {
		t.Fatalf("row misses/hits = %d/%d, want 2/0", st.RowMisses, st.RowHits)
	}
	if st.TotalLatency != total || st.LookupLatency != 3*c.Device().Timing().LockLookup {
		t.Fatalf("latency: total %v (sum %v), lookup %v", st.TotalLatency, total, st.LookupLatency)
	}
}
