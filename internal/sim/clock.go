// Package sim provides the deterministic simulation substrate used by every
// benchmark in this repository: a virtual clock, a cost model for
// kernel-level operations (context switches, memory copies, page-cache and
// disk accesses), a seeded pseudo-random generator, and small statistics
// helpers.
//
// All performance experiments in the paper reproduction run against virtual
// time. Each simulated operation advances the clock by an amount derived
// from the cost model, so results are reproducible bit-for-bit and do not
// depend on the host machine.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. It is advanced explicitly by simulated
// operations and never by wall time. A Clock is safe for concurrent use:
// Advance uses atomic addition so that multiple simulated threads can
// account their costs independently, mirroring how CPU time accumulates
// across cores.
type Clock struct {
	now atomic.Int64 // virtual nanoseconds since simulation start
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored; the clock never moves backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Duration(c.now.Load())
	}
	return time.Duration(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock forward to at least t. It is used when a
// simulated resource (e.g. a disk queue) completes a request at a known
// future instant. If t is in the past, the clock is unchanged.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("simclock(%v)", c.Now())
}
