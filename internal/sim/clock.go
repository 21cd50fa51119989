// Package sim provides the deterministic simulation substrate used by every
// benchmark in this repository: a virtual clock, a cost model for
// kernel-level operations (context switches, memory copies, page-cache and
// disk accesses), a disk that charges that model, and a seeded
// pseudo-random generator.
//
// All performance experiments in the paper reproduction run against virtual
// time. Each simulated operation advances the clock by an amount derived
// from the cost model, so results are reproducible bit-for-bit and do not
// depend on the host machine. The clock only adds: its reading is the sum
// of every charge made so far, whatever order concurrent charges land in.
package sim

import (
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

// Advance moves the clock forward by d. Negative durations are ignored;
// the clock never moves backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}
