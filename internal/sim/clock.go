// Package sim provides the deterministic simulation substrate used by every
// benchmark in this repository: a virtual clock, a cost model for
// kernel-level operations (context switches, memory copies, page-cache and
// disk accesses), a disk that charges that model, and a seeded
// pseudo-random generator.
//
// All performance experiments in the paper reproduction run against virtual
// time. Each simulated operation charges the clock an amount derived from
// the cost model, so results are reproducible bit-for-bit and do not
// depend on the host machine. The clock only adds: its reading is the sum
// of every charge made so far, whatever order concurrent charges land in.
//
// The clock keeps a ledger beside its reading: every charge names the
// Layer that pays it, and each layer's bucket adds what that layer was
// charged, so the buckets sum to Now by construction once the charges in
// flight have landed. A page cache and a FUSE connection take their layer
// when they are built (the stack tags the kernel-side cache, the host
// cache and the connection); the disk, the cache tier's client and the
// socket proxy charge a layer of their own. CntrFS, memfs and unionfs
// charge nothing: a backing operation's cost is the FUSE server's wakeup
// (LayerFuse) and the disk's seek and transfer (LayerDisk).
package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Layer names what a charge pays for: one bucket of a clock's ledger.
type Layer uint8

// The layers, in the order a ledger prints them. The zero Layer is
// LayerOther, what a component nobody tagged charges: a stack built by
// internal/stack tags every component, so it charges LayerOther nothing.
const (
	LayerOther    Layer = iota
	LayerWorkload       // the workload's own compute and waits
	LayerKernel         // the page cache a syscall enters: native's, or the one above a FUSE mount
	LayerFuse           // the FUSE connection and its server threads
	LayerHost           // the host page cache beneath CntrFS
	LayerDisk           // the disk model
	LayerNet            // the cache tier's network and image pulls
	LayerProxy          // the socket proxy's splices
	numLayers
)

var layerNames = [numLayers]string{"other", "workload", "kernel", "fuse", "host", "disk", "net", "proxy"}

func (l Layer) String() string { return layerNames[l] }

// Clock is a virtual clock. It is advanced explicitly by simulated
// operations and never by wall time. A Clock is safe for concurrent use:
// Charge uses atomic addition so that multiple simulated threads can
// account their costs independently, mirroring how CPU time accumulates
// across cores.
type Clock struct {
	now    atomic.Int64 // virtual nanoseconds since simulation start
	layers [numLayers]atomic.Int64
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Charge moves the clock forward by d, paid by layer l. Negative
// durations are ignored; the clock never moves backwards.
func (c *Clock) Charge(l Layer, d time.Duration) {
	if d > 0 {
		c.layers[l].Add(int64(d))
		c.now.Add(int64(d))
	}
}

// Ledger returns what each layer has been charged so far.
func (c *Clock) Ledger() Ledger {
	var l Ledger
	for i := range l {
		l[i] = time.Duration(c.layers[i].Load())
	}
	return l
}

// Ledger is a clock's charges by layer, indexed by Layer.
type Ledger [numLayers]time.Duration

// Sub returns what each layer was charged from m to l.
func (l Ledger) Sub(m Ledger) Ledger {
	for i := range l {
		l[i] -= m[i]
	}
	return l
}

// Fields renders the nonzero buckets in layer order as prefix.layer=ns,
// space-separated.
func (l Ledger) Fields(prefix string) string {
	var f []string
	for i, d := range l {
		if d != 0 {
			f = append(f, fmt.Sprintf("%s.%v=%d", prefix, Layer(i), d))
		}
	}
	return strings.Join(f, " ")
}
