// Package policy turns per-operation traces into enforceable
// per-container profiles, in the style of BEACON's environment-aware
// dynamic analysis: record what a container actually does through the
// thin FUSE layer (every operation crosses one choke point, so the
// trace is complete), derive an allowlist profile from the recording,
// and enforce the profile on later runs — denying anything the recorded
// run never did.
//
// The package has three parts matching that pipeline:
//
//   - Collector: the aggregation of what was recorded. Each traced mount
//     chains one Run, a vfs.Interceptor, at its top; it keys activity by
//     operation kind and path prefix, and keeps an errno histogram per
//     kind.
//   - Profile: the generated allowlist (permitted operation kinds per
//     path subtree, plus windowed byte ceilings), serializable to JSON.
//   - Enforcer: a vfs.Interceptor that denies off-profile operations
//     with EACCES, or — in audit mode — records them as violations
//     while letting them through.
//
// Run and Enforcer learn the inode→path mapping the same way, from the
// operations themselves (pathTable), so no side channel into the traced
// filesystem is needed. slim derives Figure 5's keep-sets from a Run too.
package policy

import (
	"sort"
	"sync"

	"cntr/internal/vfs"
)

// unknownAnchor keys activity whose target path could not be resolved
// (the operation addressed an inode the trace never saw resolved).
const unknownAnchor = "?"

// CeilingWindowOps is the sliding-window length, in completed data
// operations (reads and writes), over which the collector tracks peak
// byte volumes during recording and the Enforcer meters the generated
// rate ceilings. Clocking the window off the op stream instead of wall
// time keeps recording and enforcement deterministic under replay. It is
// also the longest window Load accepts: an enforcer allocates a ring
// entry per operation of its window.
const CeilingWindowOps = 1024

// windowTracker maintains a sliding sum of per-direction payload bytes
// over the last n data operations (CeilingWindowOps when n is unset),
// and the peak each sum ever reached — the recorded basis for the
// profile's windowed rate ceilings, and the Enforcer's live meter.
type windowTracker struct {
	n            int
	ring         []winEntry
	next, count  int
	sumR, sumW   int64
	peakR, peakW int64
}

type winEntry struct{ r, w int64 }

// push advances the window by one completed data operation.
func (t *windowTracker) push(r, w int64) {
	if t.ring == nil {
		if t.n <= 0 {
			t.n = CeilingWindowOps
		}
		t.ring = make([]winEntry, t.n)
	}
	e := &t.ring[t.next]
	if t.count == len(t.ring) {
		t.sumR -= e.r
		t.sumW -= e.w
	} else {
		t.count++
	}
	e.r, e.w = r, w
	t.sumR += r
	t.sumW += w
	t.next = (t.next + 1) % len(t.ring)
	if t.sumR > t.peakR {
		t.peakR = t.sumR
	}
	if t.sumW > t.peakW {
		t.peakW = t.sumW
	}
}

// Collector aggregates recorded operations into one container's
// activity. It records through Runs (NewRun), one chained at the top of
// each traced mount: inode numbers are only meaningful within one mount,
// so each needs its own learned path table, while several mounts may
// feed one collector concurrently.
type Collector struct {
	mu  sync.Mutex
	act activity
	// win tracks the sliding byte window over the data-op stream; its
	// peaks become the profile's windowed rate ceilings.
	win windowTracker
}

// Run is a vfs.Interceptor that records every operation of one mount
// into the shared collector, after the operation has run, with its
// outcome. It learns the mount's inode→path table from the operations
// themselves.
type Run struct {
	c  *Collector
	mu sync.Mutex
	pathTable
}

// activity is the collector's aggregation state. Anchors live in a
// path-component trie, the same structure the Enforcer matches rules
// against.
type activity struct {
	ops        int64
	readBytes  int64
	writeBytes int64
	kinds      map[vfs.OpKind]*kindAgg
	anchors    pathTrie[*anchorAgg]
}

type kindAgg struct {
	ops    int64
	bytes  int64
	errnos map[string]int64
}

type anchorAgg struct {
	kinds map[vfs.OpKind]int64
	ops   int64
	bytes int64
}

// NewCollector returns an empty collector; record into it through
// NewRun.
func NewCollector() *Collector {
	return &Collector{act: activity{kinds: make(map[vfs.OpKind]*kindAgg)}}
}

// NewRun starts recording one traced mount. Aggregation is shared with
// every other run of the collector; the ino→path table is not, so two
// concurrently traced mounts cannot cross-bind paths.
func (c *Collector) NewRun() *Run {
	return &Run{c: c, pathTable: newPathTable()}
}

// Intercept implements vfs.Interceptor: it runs the operation, then
// learns paths from it and aggregates it at its anchor, the learned path
// of the inode it addressed.
func (r *Run) Intercept(info *vfs.OpInfo, next func() error) error {
	err := next()
	r.mu.Lock()
	anchor := r.dir(info.Ino)
	r.learn(info, anchor, err)
	r.mu.Unlock()
	r.c.mu.Lock()
	r.c.recordLocked(info, vfs.ToErrno(err), anchor)
	r.c.mu.Unlock()
	return err
}

// recordLocked aggregates one operation that ended with errno. Caller
// holds c.mu.
func (c *Collector) recordLocked(info *vfs.OpInfo, errno vfs.Errno, anchor string) {
	bytes := int64(info.Bytes)
	a := &c.act
	a.ops++
	k := a.kinds[info.Kind]
	if k == nil {
		k = &kindAgg{errnos: make(map[string]int64)}
		a.kinds[info.Kind] = k
	}
	k.ops++
	k.bytes += bytes
	k.errnos[errnoName(errno)]++
	switch info.Kind {
	case vfs.KindRead:
		a.readBytes += bytes
		c.win.push(bytes, 0)
	case vfs.KindWrite:
		a.writeBytes += bytes
		c.win.push(0, bytes)
	}
	key := anchor
	if key == "" {
		key = unknownAnchor
	}
	an := a.anchors.getOrCreate(key, newAnchorAgg)
	an.kinds[info.Kind]++
	an.ops++
	an.bytes += bytes
}

// newAnchorAgg materializes an empty per-anchor aggregate.
func newAnchorAgg() *anchorAgg {
	return &anchorAgg{kinds: make(map[vfs.OpKind]int64)}
}

// errnoName renders an errno for histogram keys: "ok" for success, the
// POSIX description otherwise.
func errnoName(e vfs.Errno) string {
	if e == vfs.OK {
		return "ok"
	}
	return e.Error()
}

// Activity is the JSON-able snapshot of the recorded activity:
// operation counts per kind (with errno histograms) and per path prefix.
type Activity struct {
	Ops        int64                   `json:"ops"`
	ReadBytes  int64                   `json:"read_bytes"`
	WriteBytes int64                   `json:"write_bytes"`
	Kinds      map[string]KindActivity `json:"kinds,omitempty"`
	Paths      map[string]PathActivity `json:"paths,omitempty"`
}

// KindActivity aggregates one operation kind.
type KindActivity struct {
	Ops    int64            `json:"ops"`
	Bytes  int64            `json:"bytes,omitempty"`
	Errnos map[string]int64 `json:"errnos,omitempty"`
}

// PathActivity aggregates one path prefix.
type PathActivity struct {
	Kinds []string `json:"kinds"`
	Ops   int64    `json:"ops"`
	Bytes int64    `json:"bytes,omitempty"`
}

// Snapshot returns the recorded activity.
func (c *Collector) Snapshot() Activity {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := &c.act
	act := Activity{
		Ops:        a.ops,
		ReadBytes:  a.readBytes,
		WriteBytes: a.writeBytes,
		Kinds:      make(map[string]KindActivity, len(a.kinds)),
		Paths:      make(map[string]PathActivity, a.anchors.size()),
	}
	for kind, k := range a.kinds {
		errnos := make(map[string]int64, len(k.errnos))
		for name, n := range k.errnos {
			errnos[name] = n
		}
		act.Kinds[kind.String()] = KindActivity{Ops: k.ops, Bytes: k.bytes, Errnos: errnos}
	}
	a.anchors.walk(func(anchor string, an *anchorAgg) {
		kinds := make([]string, 0, len(an.kinds))
		for kind := range an.kinds {
			kinds = append(kinds, kind.String())
		}
		sort.Strings(kinds)
		act.Paths[anchor] = PathActivity{Kinds: kinds, Ops: an.ops, Bytes: an.bytes}
	})
	return act
}

// GenOptions tunes profile generation.
type GenOptions struct {
	// RunID names this recording in the profile's lifecycle header
	// (SourceRuns); empty leaves the header's run list empty.
	RunID string
}

// Profile derives an allowlist profile from the recorded activity.
// Each observed operation
// contributes its kind to the rule for its anchor directory; operations
// whose path was never learned contribute to the any-path kind list, so
// enforcement of the generated profile never denies a faithful replay.
//
// Ceilings are windowed rates, not lifetime totals: the peak payload
// volume observed in any CeilingWindowOps-operation window of the
// recording, times the headroom. A faithful replay repeats the recorded
// op stream, so every window it produces stays at or below the recorded
// peak — strictly below the ceiling once headroom is applied, and below
// it even at headroom 1 because admission checks the window *before*
// the op completing it lands.
func (c *Collector) Profile(opts GenOptions) *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	rules := make(map[string]map[vfs.OpKind]bool)
	anyKinds := make(map[vfs.OpKind]bool)
	c.act.anchors.walk(func(anchor string, an *anchorAgg) {
		if anchor == unknownAnchor {
			for kind := range an.kinds {
				anyKinds[kind] = true
			}
			return
		}
		r := rules[anchor]
		if r == nil {
			r = make(map[vfs.OpKind]bool)
			rules[anchor] = r
		}
		for kind := range an.kinds {
			r[kind] = true
		}
	})
	p := &Profile{Version: FormatVersion, Generation: 1, Runs: 1}
	if opts.RunID != "" {
		p.SourceRuns = []string{opts.RunID}
	}
	for prefix, kinds := range rules {
		p.Rules = append(p.Rules, Rule{Prefix: prefix, Kinds: kindNamesOf(kinds)})
	}
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].Prefix < p.Rules[j].Prefix })
	p.AnyPathKinds = kindNamesOf(anyKinds)
	if c.win.peakR > 0 || c.win.peakW > 0 {
		// The headroom multiplies the recorded peak window volumes into
		// the rate ceilings, so a replay of the same workload stays under
		// them while a runaway writer does not.
		const h = 2
		p.WindowOps = CeilingWindowOps
		p.ReadBytesPerWindow = int64(float64(c.win.peakR) * h)
		p.WriteBytesPerWindow = int64(float64(c.win.peakW) * h)
	}
	return p
}

// kindNamesOf renders a kind set as a sorted name list.
func kindNamesOf(kinds map[vfs.OpKind]bool) []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
}
