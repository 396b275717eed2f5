// Package backoff is the repo's single retry-delay policy: capped
// exponential growth with deterministic, seeded jitter and
// context-aware sleeping.
//
// Before this package existed, internal/remote carried four divergent
// ad-hoc retry loops (a fixed 1s poll backoff, a 10ms-doubling submit
// loop, an unjittered TTL/3 renew ticker and a fixed re-probation
// delay). Fixed delays synchronize a fleet: after a broker restart,
// every worker that failed its poll at the same instant retries at the
// same instant, forever — the classic thundering herd, which is exactly
// the correlated-retry storm a 100-worker fleet melts down under.
// Jitter decorrelates the herd; the seed keeps each individual agent's
// delay sequence reproducible, so chaos runs and tests replay exactly.
//
// Usage:
//
//	b := backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second,
//		Jitter: 0.5}.New(backoff.SeedString(workerName))
//	for {
//		if err := try(); err == nil {
//			b.Reset()
//			continue
//		}
//		if err := b.Sleep(ctx); err != nil {
//			return err // canceled mid-backoff
//		}
//	}
//
// A Policy with Factor 1 is a jittered constant interval — the right
// shape for heartbeat/renew loops, where the point is desynchronizing
// periodic traffic rather than shedding load.
package backoff

import (
	"context"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"
)

// Policy describes a backoff shape. The zero value is not useful —
// Base must be positive — but every other field has a sane default.
type Policy struct {
	// Base is the delay before the first retry (required, > 0).
	Base time.Duration
	// Max caps each un-jittered delay; 0 means no cap. Jitter may push
	// a delay up to Jitter/2 past the cap.
	Max time.Duration
	// Factor is the per-attempt growth multiplier; values < 1 (including
	// the zero value) mean 2. Factor 1 gives a constant jittered
	// interval (heartbeats).
	Factor float64
	// Jitter is the fraction of each delay that is randomized, in
	// [0, 1]: a delay d becomes uniform in [d·(1−J/2), d·(1+J/2)).
	// 0 disables jitter (exact, for tests).
	Jitter float64
}

// New builds a Backoff for this policy. Delays are deterministic for a
// given (policy, seed) pair; derive the seed from a stable identity
// (worker name, fleet index) so each agent jitters differently but
// reproducibly. A Backoff is not safe for concurrent use — it belongs
// to one retry loop.
func (p Policy) New(seed int64) *Backoff {
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return &Backoff{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Backoff is the mutable state of one retry loop: how many consecutive
// failures it has seen, and its private jitter stream.
type Backoff struct {
	p       Policy
	attempt int
	rng     *rand.Rand
}

// Next returns the delay to wait before the next retry and advances
// the attempt counter. It also feeds the process-wide retry total
// (Total), which daemons log on exit so soak gates can bound retry
// storms.
func (b *Backoff) Next() time.Duration {
	d := float64(b.p.Base)
	for i := 0; i < b.attempt; i++ {
		d *= b.p.Factor
		if b.p.Max > 0 && d >= float64(b.p.Max) {
			d = float64(b.p.Max)
			break
		}
	}
	if b.p.Max > 0 && d > float64(b.p.Max) {
		d = float64(b.p.Max)
	}
	b.attempt++
	total.Add(1)
	if j := b.p.Jitter; j > 0 {
		d += float64(d * j * (float64(b.rng.Float64()) - 0.5))
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Attempt reports how many delays Next has produced since the last
// Reset (i.e. the number of consecutive failures so far).
func (b *Backoff) Attempt() int { return b.attempt }

// Reset restarts the sequence at Base; call it after a success so the
// next failure starts the ramp from the bottom again. The jitter
// stream is not rewound — only the amplitude resets.
func (b *Backoff) Reset() { b.attempt = 0 }

// Sleep waits Next() or until ctx cancels, whichever is first, and
// returns ctx's error in the cancel case — the standard body of a
// retry loop.
func (b *Backoff) Sleep(ctx context.Context) error {
	return Sleep(ctx, b.Next())
}

// SleepAtLeast is Sleep with a floor: the serving side named its own
// comeback time (a Retry-After on a rate_limited reply), so waiting
// less than that is a guaranteed wasted round-trip. The exponential
// ramp still applies above the floor.
func (b *Backoff) SleepAtLeast(ctx context.Context, floor time.Duration) error {
	d := b.Next()
	if d < floor {
		d = floor
	}
	return Sleep(ctx, d)
}

// Sleep pauses for d or until ctx cancels (returning ctx's error).
// This is the only sanctioned way to wait in a retry loop — a bare
// time.Sleep cannot be interrupted by shutdown, which is how drains
// end up hanging for a full backoff.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// total counts every Next() across the process.
var total atomic.Int64

// Total reports the process-wide number of backoff delays taken since
// start. Daemons log it on exit; the chaos soak gate reads that line
// to assert retries stayed bounded under the injected fault plan.
func Total() int64 { return total.Load() }

// SeedString hashes a stable identity (worker name, tenant) into a
// jitter seed: same identity, same delay sequence; different
// identities, decorrelated ones.
func SeedString(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64())
}
