// Package controller implements the DRAM-Locker memory controller: the
// instruction Sequence, lock-table interception, SWAP orchestration through
// the ISA sequencer, and open-page DDR4 command generation with cycle
// accounting.
//
// Request flow (paper §IV-A/B):
//
//  1. Every R/W instruction entering the Sequence performs a lock-table
//     lookup (SRAM latency).
//  2. If the target row is locked and the request is unprivileged (the
//     attacker), the instruction is *skipped*: no activation reaches the
//     array, so the row can never be hammered, and the request costs only
//     the lookup.
//  3. If the target row is locked and the request is privileged (the
//     victim program), the controller runs the three-copy SWAP program on
//     the ISA sequencer, pulling the data into a free row of the same
//     subarray; the access then proceeds at the new location. The lock
//     entry itself is not changed by the SWAP (Fig. 4(b)).
//  4. A redirect created by a SWAP lives for RelockInterval R/W
//     instructions (1k in the paper); on expiry the controller swaps the
//     data back and re-secures the row (Fig. 4(d)).
//
// The model has one operating point: the constants RelockInterval and
// FreeRowsPerSubarray, and the lock-table's locktable.Capacity. A SWAP's
// destination is the next free-pool row of the subarray in round-robin
// order. Every SWAP copy is exact (see isa.Sequencer). Locking a row's
// neighbours reaches distance 1, the rows the paper's fault model lets an
// aggressor disturb.
package controller

import (
	"errors"
	"fmt"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/locktable"
)

// RequestKind distinguishes reads from writes.
type RequestKind uint8

// Request kinds.
const (
	ReqRead RequestKind = iota
	ReqWrite
)

// String names the request kind.
func (k RequestKind) String() string {
	if k == ReqRead {
		return "RD"
	}
	return "WR"
}

// Request is one R/W instruction entering the controller's Sequence.
type Request struct {
	Kind RequestKind
	// Phys is the physical byte address.
	Phys int64
	// Data is the payload for writes.
	Data []byte
	// Len is the number of bytes to read.
	Len int
	// Privileged marks requests from the victim program, which may unlock
	// rows via SWAP. Attacker requests are unprivileged.
	Privileged bool
	// Buf, when non-nil and at least Len bytes for a read, receives the
	// data and Response.Data aliases it — the trace replayer's fast path,
	// which would otherwise allocate a fresh buffer per request. Callers
	// reusing Buf must consume Response.Data before the next submit.
	Buf []byte
}

// Response reports the outcome of a request.
type Response struct {
	// Denied is true when the lock-table blocked the request.
	Denied bool
	// Data holds read results.
	Data []byte
	// Latency is the total time charged to this request.
	Latency dram.Picoseconds
}

// Stats aggregates controller activity.
type Stats struct {
	Instructions  int64
	Denied        int64
	Swaps         int64
	RowHits       int64
	RowMisses     int64
	TotalLatency  dram.Picoseconds
	LookupLatency dram.Picoseconds
}

// The controller's operating point (paper §IV, Fig. 4).
const (
	// RelockInterval is the number of R/W instructions after a SWAP until
	// the controller swaps back and re-secures the row (paper: 1k).
	RelockInterval = 1000
	// FreeRowsPerSubarray is the size of the reserved swap-destination
	// pool in each subarray (the buffer row is reserved separately).
	FreeRowsPerSubarray = 4
)

// Errors returned by the controller.
var (
	ErrNoFreeRow   = errors.New("controller: no free swap destination in subarray")
	ErrReservedRow = errors.New("controller: address falls in a reserved row")
	ErrOutOfRange  = errors.New("controller: request outside a single row")
)

// redirect records an active SWAP: data of row Orig currently lives in Dest.
type redirect struct {
	Orig      dram.RowAddr
	Dest      dram.RowAddr
	Countdown int
}

// Controller is the DRAM-Locker memory controller.
type Controller struct {
	dev    *dram.Device
	mapper dram.AddrMapper
	table  *locktable.Table
	seq    *isa.Sequencer

	// redirects maps the linear index of an original row to its redirect.
	redirects map[int]*redirect
	// destInUse marks free-pool rows currently holding swapped data.
	destInUse map[int]bool
	// rrCursor is each subarray's next free-pool index to try.
	rrCursor map[int]int

	stats Stats
}

// New builds a controller over the device. The device's subarrays must
// leave rows beyond the reserved buffer and free-pool rows.
func New(dev *dram.Device) (*Controller, error) {
	geom := dev.Geometry()
	if FreeRowsPerSubarray+1 >= geom.RowsPerSubarray {
		return nil, fmt.Errorf("controller: reserved rows (%d) exceed subarray size (%d)",
			FreeRowsPerSubarray+1, geom.RowsPerSubarray)
	}
	return &Controller{
		dev:       dev,
		mapper:    dram.NewAddrMapper(geom),
		table:     locktable.New(geom),
		seq:       isa.NewSequencer(dev),
		redirects: make(map[int]*redirect),
		destInUse: make(map[int]bool),
		rrCursor:  make(map[int]int),
	}, nil
}

// Device returns the underlying DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Table returns the lock-table (for inspection and direct policy control).
func (c *Controller) Table() *locktable.Table { return c.table }

// Mapper returns the address mapper.
func (c *Controller) Mapper() dram.AddrMapper { return c.mapper }

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// --- Reserved row layout ---------------------------------------------------

// bufferRow returns the reserved buffer row of a subarray (its last row).
func (c *Controller) bufferRow(bank, subarray int) dram.RowAddr {
	geom := c.dev.Geometry()
	return dram.RowAddr{Bank: bank, Row: subarray*geom.RowsPerSubarray + geom.RowsPerSubarray - 1}
}

// freePoolRow returns the i-th reserved free row of a subarray.
func (c *Controller) freePoolRow(bank, subarray, i int) dram.RowAddr {
	geom := c.dev.Geometry()
	return dram.RowAddr{Bank: bank, Row: subarray*geom.RowsPerSubarray + geom.RowsPerSubarray - 2 - i}
}

// IsReserved reports whether a row is a buffer or free-pool row.
func (c *Controller) IsReserved(a dram.RowAddr) bool {
	geom := c.dev.Geometry()
	in := geom.RowInSubarray(a)
	return in >= geom.RowsPerSubarray-1-FreeRowsPerSubarray
}

// --- Locking policy entry points -------------------------------------------

// LockRow adds a physical row to the lock-table.
func (c *Controller) LockRow(a dram.RowAddr) error {
	if c.IsReserved(a) {
		return fmt.Errorf("%w: %v", ErrReservedRow, a)
	}
	return c.table.Lock(a)
}

// LockNeighborsOf locks the rows physically adjacent to the row holding the
// given physical address — the paper's recommended policy (lock aggressor
// candidates, not the hot data itself). It returns the rows locked.
func (c *Controller) LockNeighborsOf(phys int64) ([]dram.RowAddr, error) {
	row, err := c.mapper.RowOfPhys(phys)
	if err != nil {
		return nil, err
	}
	var locked []dram.RowAddr
	for _, n := range c.dev.Geometry().Neighbors(row, 1) {
		if c.IsReserved(n) || c.table.IsLocked(n) {
			continue
		}
		if err := c.table.Lock(n); err != nil {
			return locked, err
		}
		locked = append(locked, n)
	}
	return locked, nil
}

// --- Request path -----------------------------------------------------------

// Submit processes one R/W instruction through the Sequence.
func (c *Controller) Submit(req Request) (Response, error) {
	var resp Response
	c.stats.Instructions++
	c.tickRedirects()

	row, col, err := c.mapper.Translate(req.Phys)
	if err != nil {
		return resp, err
	}
	n := req.Len
	if req.Kind == ReqWrite {
		n = len(req.Data)
	}
	if n <= 0 || col+n > c.dev.Geometry().RowBytes {
		return resp, fmt.Errorf("%w: phys 0x%x len %d", ErrOutOfRange, req.Phys, n)
	}

	// 1. Lock-table lookup.
	t := c.dev.Timing()
	resp.Latency += t.LockLookup
	c.stats.LookupLatency += t.LockLookup

	target := row
	if c.table.IsLocked(row) {
		if !req.Privileged {
			// 2. Attacker request on a locked row: skipped. The redirect
			// map is controller-internal and never consulted for
			// unprivileged requests.
			resp.Denied = true
			c.stats.Denied++
			c.stats.TotalLatency += resp.Latency
			return resp, nil
		}
		if r, ok := c.redirects[c.dev.Geometry().LinearIndex(row)]; ok {
			// 3a. Already swapped out: serve at the redirect destination.
			target = r.Dest
		} else {
			// 3b. First victim access: SWAP the locked row's data out.
			lat, dest, err := c.swapOut(row)
			if err != nil {
				return resp, err
			}
			resp.Latency += lat
			target = dest
		}
	}

	// 4. Issue the DRAM commands at the (possibly redirected) location.
	accessLat, err := c.access(req.Kind, target, col, req.Data, req.Buf, n, &resp)
	if err != nil {
		return resp, err
	}
	resp.Latency += accessLat
	c.stats.TotalLatency += resp.Latency
	return resp, nil
}

// Read is a convenience wrapper for privileged reads.
func (c *Controller) Read(phys int64, n int) ([]byte, Response, error) {
	resp, err := c.Submit(Request{Kind: ReqRead, Phys: phys, Len: n, Privileged: true})
	return resp.Data, resp, err
}

// Write is a convenience wrapper for privileged writes.
func (c *Controller) Write(phys int64, data []byte) (Response, error) {
	return c.Submit(Request{Kind: ReqWrite, Phys: phys, Data: data, Privileged: true})
}

// access performs the open-page command sequence for one burst. For reads
// the result lands in buf when it is large enough, else a fresh buffer.
func (c *Controller) access(kind RequestKind, row dram.RowAddr, col int, data, buf []byte, n int, resp *Response) (dram.Picoseconds, error) {
	var lat dram.Picoseconds
	open, isOpen := c.dev.OpenRow(row.Bank)
	if !isOpen || open != row.Row {
		if isOpen {
			l, err := c.dev.Precharge(row.Bank)
			if err != nil {
				return lat, err
			}
			lat += l
		}
		l, err := c.dev.Activate(row)
		if err != nil {
			return lat, err
		}
		lat += l
		c.stats.RowMisses++
	} else {
		c.stats.RowHits++
	}
	switch kind {
	case ReqRead:
		if len(buf) >= n {
			buf = buf[:n]
		} else {
			buf = make([]byte, n)
		}
		l, err := c.dev.Read(row, col, buf)
		if err != nil {
			return lat, err
		}
		lat += l
		resp.Data = buf
	case ReqWrite:
		l, err := c.dev.Write(row, col, data)
		if err != nil {
			return lat, err
		}
		lat += l
	}
	return lat, nil
}

// swapOut runs the ISA SWAP program to move a locked row's data into a free
// row of the same subarray and records the redirect.
func (c *Controller) swapOut(locked dram.RowAddr) (lat dram.Picoseconds, dest dram.RowAddr, err error) {
	geom := c.dev.Geometry()
	sub := geom.Subarray(locked)
	dest, err = c.pickDest(locked.Bank, sub)
	if err != nil {
		return 0, dest, err
	}

	// Bind the canonical registers and run the SWAP program, exactly as
	// the hardware sequencer would (paper Fig. 4(b) + Fig. 5).
	buffer := c.bufferRow(locked.Bank, sub)
	if err := c.seq.BindRow(isa.RegLocked, locked); err != nil {
		return 0, dest, err
	}
	if err := c.seq.BindRow(isa.RegUnlocked, dest); err != nil {
		return 0, dest, err
	}
	if err := c.seq.BindRow(isa.RegBuffer, buffer); err != nil {
		return 0, dest, err
	}
	res, err := c.seq.Run(isa.SwapProgram())
	if err != nil {
		return 0, dest, err
	}

	c.redirects[geom.LinearIndex(locked)] = &redirect{Orig: locked, Dest: dest, Countdown: RelockInterval}
	c.destInUse[geom.LinearIndex(dest)] = true
	c.stats.Swaps++
	return res.Latency, dest, nil
}

// pickDest selects the subarray's next unused free-pool row in
// round-robin order.
func (c *Controller) pickDest(bank, sub int) (dram.RowAddr, error) {
	geom := c.dev.Geometry()
	pool := FreeRowsPerSubarray
	key := bank*geom.SubarraysPerBank + sub
	start := c.rrCursor[key]
	for i := 0; i < pool; i++ {
		cand := c.freePoolRow(bank, sub, (start+i)%pool)
		if !c.destInUse[geom.LinearIndex(cand)] {
			c.rrCursor[key] = (start + i + 1) % pool
			return cand, nil
		}
	}
	return dram.RowAddr{}, fmt.Errorf("%w: bank %d subarray %d", ErrNoFreeRow, bank, sub)
}

// tickRedirects advances re-lock countdowns by one R/W instruction and
// swaps expired redirects back (Fig. 4(d): re-securing the data row).
func (c *Controller) tickRedirects() {
	if len(c.redirects) == 0 {
		return
	}
	geom := c.dev.Geometry()
	var expired []*redirect
	for _, r := range c.redirects {
		r.Countdown--
		if r.Countdown <= 0 {
			expired = append(expired, r)
		}
	}
	for _, r := range expired {
		// Swap the data back into its original (still locked) position.
		sub := geom.Subarray(r.Orig)
		buffer := c.bufferRow(r.Orig.Bank, sub)
		_ = c.seq.BindRow(isa.RegLocked, r.Dest)
		_ = c.seq.BindRow(isa.RegUnlocked, r.Orig)
		_ = c.seq.BindRow(isa.RegBuffer, buffer)
		_, _ = c.seq.Run(isa.SwapProgram())
		delete(c.redirects, geom.LinearIndex(r.Orig))
		delete(c.destInUse, geom.LinearIndex(r.Dest))
	}
}

// ActiveRedirects returns the number of live redirects.
func (c *Controller) ActiveRedirects() int { return len(c.redirects) }

// HammerAttempt models one attacker hammering access to a row: a PRE-ACT
// pair that re-opens the row. If the row is locked the attempt is denied
// before any command reaches the array. It returns whether the activation
// happened and the latency charged to the attacker's instruction stream.
func (c *Controller) HammerAttempt(row dram.RowAddr) (activated bool, lat dram.Picoseconds, err error) {
	c.stats.Instructions++
	c.tickRedirects()
	t := c.dev.Timing()
	lat = t.LockLookup
	c.stats.LookupLatency += t.LockLookup
	if c.table.IsLocked(row) {
		c.stats.Denied++
		c.stats.TotalLatency += lat
		return false, lat, nil
	}
	l, err := c.dev.Precharge(row.Bank)
	if err != nil {
		return false, lat, err
	}
	lat += l
	l, err = c.dev.Activate(row)
	if err != nil {
		return false, lat, err
	}
	lat += l
	c.stats.TotalLatency += lat
	return true, lat, nil
}
