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
//   - Collector: an aggregation sink for vfs.Tracer entries. It keys
//     activity by origin (Op.PID), operation kind and path prefix, and
//     keeps an errno histogram per kind. The inode→path mapping is
//     learned from the trace itself (Lookup/Create/Mkdir entries carry
//     parent inode, name and resulting inode), so no side channel into
//     the traced filesystem is needed.
//   - Profile: the generated allowlist (permitted operation kinds per
//     path subtree, plus byte ceilings), serializable to JSON.
//   - Enforcer: a vfs.Interceptor that denies off-profile operations
//     with EACCES, or — in audit mode — records them as violations
//     while letting them through.
package policy

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"

	"cntr/internal/fuse"
	"cntr/internal/vfs"
)

// unknownAnchor keys activity whose target path could not be resolved
// (the operation addressed an inode the trace never saw resolved).
const unknownAnchor = "?"

// CeilingWindowOps is the sliding-window length, in completed data
// operations (reads and writes), over which the collector tracks peak
// byte volumes during recording and the Enforcer meters the generated
// rate ceilings. Clocking the window off the op stream instead of wall
// time keeps recording and enforcement deterministic under replay.
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

// Collector aggregates trace entries into per-origin activity profiles.
// Point a vfs.Tracer's Sink at Collector.Sink for a single traced
// mount, or at a per-mount Run's Sink (NewRun) when several mounts feed
// one collector concurrently — inode numbers are only meaningful within
// one mount, so each needs its own learned path table.
type Collector struct {
	mu sync.Mutex
	// run is the default path-learning scope behind Collector.Sink.
	run     *Run
	origins map[uint32]*activity
	// win tracks the mount-global sliding byte window over the data-op
	// stream; its peaks become the profile's windowed rate ceilings.
	// Collector-global rather than per-origin: the data path whose rate
	// the ceilings bound is shared by every origin on the mount.
	win windowTracker
}

// Run scopes the learned ino→path table to one traced mount; its Sink
// aggregates into the shared collector.
type Run struct {
	c  *Collector
	mu sync.Mutex
	// paths is this mount's learned ino→path table, seeded with root.
	paths map[vfs.Ino]string
}

// activity is one origin's aggregation state. Anchors live in a
// path-component trie — the same structure the Enforcer matches rules
// against — so per-prefix aggregation composes into subtree rollups
// (PrefixActivity) without scanning every anchor.
type activity struct {
	ops        int64
	readBytes  int64
	writeBytes int64
	kinds      map[vfs.OpKind]*kindAgg
	anchors    pathTrie[*anchorAgg]
	transport  fuse.OriginStats
	joined     bool
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

// NewCollector returns an empty collector ready to sink trace entries.
func NewCollector() *Collector {
	c := &Collector{origins: make(map[uint32]*activity)}
	c.run = c.NewRun()
	return c
}

// NewRun starts a path-learning scope for one traced mount. Aggregation
// is shared with every other run of the collector; the ino→path table
// is not, so two concurrently traced mounts cannot cross-bind paths.
func (c *Collector) NewRun() *Run {
	return &Run{c: c, paths: map[vfs.Ino]string{vfs.RootIno: "/"}}
}

// pathJoin appends a directory entry name to a directory path.
func pathJoin(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// entryPath is the target path of an operation on the entry name of the
// directory at dir, or on dir itself without a name; empty when dir, the
// learned path of the operation's inode, is.
func entryPath(dir, name string) string {
	if dir == "" || name == "" {
		return dir
	}
	return pathJoin(dir, name)
}

// isEntryPath reports whether p is entryPath(dir, name), without building
// it.
func isEntryPath(p, dir, name string) bool {
	if dir == "" || name == "" {
		return p == dir
	}
	if dir == "/" {
		dir = ""
	}
	return len(p) == len(dir)+1+len(name) && p[:len(dir)] == dir && p[len(dir)] == '/' && p[len(dir)+1:] == name
}

// resolvePaths computes the anchor (the directory the operation is
// rooted at, which becomes the profile rule prefix) and the target path
// of one entry from the learned path table. Caller holds the table's
// lock.
func resolvePaths(paths map[vfs.Ino]string, ino vfs.Ino, name string) (anchor, target string) {
	p := paths[ino]
	return p, entryPath(p, name)
}

// rebindPaths moves a renamed subtree in the learned path table: every
// binding at oldPath or beneath it is rewritten under newPath. Renames
// are rare, so the linear scan is fine. Caller holds the table's lock.
func rebindPaths(paths map[vfs.Ino]string, oldPath, newPath string) {
	if oldPath == "" || newPath == "" || oldPath == newPath {
		return
	}
	prefix := oldPath + "/"
	for ino, p := range paths {
		if p == oldPath {
			paths[ino] = newPath
		} else if strings.HasPrefix(p, prefix) {
			paths[ino] = newPath + p[len(oldPath):]
		}
	}
}

// renameTarget computes a successful rename's destination path from the
// entry's NewParentIno/NewName; empty when the destination directory is
// unknown. Caller holds the table's lock.
func renameTarget(paths map[vfs.Ino]string, newParent vfs.Ino, newName string) string {
	p, ok := paths[newParent]
	if !ok {
		return ""
	}
	return pathJoin(p, newName)
}

// Sink records one trace entry; assign it to a vfs.Tracer's Sink field.
// It learns paths in the collector's default scope — for multiple
// concurrently traced mounts, use a NewRun scope per mount.
func (c *Collector) Sink(e vfs.TraceEntry) { c.run.Sink(e) }

// resolveEntryLocked learns paths from one entry and returns its
// anchor. Caller holds r.mu.
func (r *Run) resolveEntryLocked(e vfs.TraceEntry) (anchor string) {
	anchor, target := resolvePaths(r.paths, e.Ino, e.Name)
	if e.ResultIno != 0 && target != "" {
		// The operation resolved or created an inode: learn its path.
		r.paths[e.ResultIno] = target
	}
	if e.Kind == vfs.KindRename && e.Errno == vfs.OK {
		// Keep attribution honest across renames: rebind the moved
		// subtree so later operations report the container's current
		// paths, not where the files used to live.
		rebindPaths(r.paths, target, renameTarget(r.paths, e.NewParentIno, e.NewName))
	}
	if e.Kind == vfs.KindForget && e.Ino != vfs.RootIno {
		// The kernel dropped its references: forget the binding too, so
		// the table stays bounded by live lookups (a fresh Lookup
		// relearns it). Without this the table grows with every inode
		// ever traced.
		delete(r.paths, e.Ino)
	}
	return anchor
}

// Sink records one trace entry, learning paths in this run's scope and
// aggregating into the shared collector.
func (r *Run) Sink(e vfs.TraceEntry) {
	r.mu.Lock()
	anchor := r.resolveEntryLocked(e)
	r.mu.Unlock()
	r.c.mu.Lock()
	r.c.recordLocked(e, anchor)
	r.c.mu.Unlock()
}

// recordLocked aggregates one resolved entry. Caller holds c.mu.
func (c *Collector) recordLocked(e vfs.TraceEntry, anchor string) {
	a := c.origin(e.PID)
	a.ops++
	k := a.kinds[e.Kind]
	if k == nil {
		k = &kindAgg{errnos: make(map[string]int64)}
		a.kinds[e.Kind] = k
	}
	k.ops++
	k.bytes += int64(e.Bytes)
	k.errnos[errnoName(e.Errno)]++
	switch e.Kind {
	case vfs.KindRead:
		a.readBytes += int64(e.Bytes)
		c.win.push(int64(e.Bytes), 0)
	case vfs.KindWrite:
		a.writeBytes += int64(e.Bytes)
		c.win.push(0, int64(e.Bytes))
	}
	key := anchor
	if key == "" {
		key = unknownAnchor
	}
	an := a.anchors.getOrCreate(key, newAnchorAgg)
	an.kinds[e.Kind]++
	an.ops++
	an.bytes += int64(e.Bytes)
}

// newAnchorAgg materializes an empty per-anchor aggregate.
func newAnchorAgg() *anchorAgg {
	return &anchorAgg{kinds: make(map[vfs.OpKind]int64)}
}

// origin returns the aggregation state for one Op.PID. Caller holds c.mu.
func (c *Collector) origin(pid uint32) *activity {
	a, ok := c.origins[pid]
	if !ok {
		a = &activity{kinds: make(map[vfs.OpKind]*kindAgg)}
		c.origins[pid] = a
	}
	return a
}

// errnoName renders an errno for histogram keys: "ok" for success, the
// POSIX description otherwise.
func errnoName(e vfs.Errno) string {
	if e == vfs.OK {
		return "ok"
	}
	return e.Error()
}

// JoinOriginStats folds a FUSE request table's per-origin completion
// counters (fuse.Server.OriginStats) into the matching activity
// profiles — the transport-level view of the same traffic, joined by
// Op.PID. Origins the collector never saw trace entries for are added,
// so kernel-side traffic (pid 0) appears too.
func (c *Collector) JoinOriginStats(stats map[uint32]fuse.OriginStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pid, s := range stats {
		a := c.origin(pid)
		a.transport.Add(s)
		a.joined = true
	}
}

// Activity is the JSON-able snapshot of one origin's aggregated
// profile: operation counts per kind (with errno histograms), per path
// prefix, and the joined transport-level counters.
type Activity struct {
	Origin     uint32                  `json:"origin"`
	Ops        int64                   `json:"ops"`
	ReadBytes  int64                   `json:"read_bytes"`
	WriteBytes int64                   `json:"write_bytes"`
	Kinds      map[string]KindActivity `json:"kinds,omitempty"`
	Paths      map[string]PathActivity `json:"paths,omitempty"`
	Transport  *TransportActivity      `json:"transport,omitempty"`
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

// TransportActivity is the joined request-table accounting.
type TransportActivity struct {
	Ops        int64 `json:"ops"`
	ReadOps    int64 `json:"read_ops"`
	WriteOps   int64 `json:"write_ops"`
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
}

// Snapshot returns the per-origin activity profiles, sorted by origin.
func (c *Collector) Snapshot() []Activity {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Activity, 0, len(c.origins))
	for pid, a := range c.origins {
		act := Activity{
			Origin:     pid,
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
		if a.joined {
			act.Transport = &TransportActivity{
				Ops:        a.transport.Ops,
				ReadOps:    a.transport.ReadOps,
				WriteOps:   a.transport.WriteOps,
				ReadBytes:  a.transport.ReadBytes,
				WriteBytes: a.transport.WriteBytes,
			}
		}
		out = append(out, act)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// RenderJSON serializes the activity snapshot, for the /proc-style
// policy view files.
func (c *Collector) RenderJSON() []byte {
	b, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}

// GenOptions tunes profile generation.
type GenOptions struct {
	// Headroom multiplies the recorded peak window volumes into the
	// profile's rate ceilings, so a replay of the same workload stays
	// under them while a runaway writer does not. Values <= 1 leave the
	// ceilings at the recorded peaks; zero (the default) means 2x.
	Headroom float64
	// RunID names this recording in the profile's lifecycle header
	// (SourceRuns); empty leaves the header's run list empty.
	RunID string
}

// Profile derives an allowlist profile from the recorded activity of
// the given origins (none means all). Each observed operation
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
// the op completing it lands. The window is tracked mount-globally, so
// per-origin selection narrows rules but not ceilings.
func (c *Collector) Profile(opts GenOptions, origins ...uint32) *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	selected := make(map[uint32]bool, len(origins))
	for _, o := range origins {
		selected[o] = true
	}
	rules := make(map[string]map[vfs.OpKind]bool)
	anyKinds := make(map[vfs.OpKind]bool)
	var outOrigins []uint32
	for pid, a := range c.origins {
		if len(origins) > 0 && !selected[pid] {
			continue
		}
		outOrigins = append(outOrigins, pid)
		a.anchors.walk(func(anchor string, an *anchorAgg) {
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
	}
	p := &Profile{Version: FormatVersion, Generation: 1, Runs: 1}
	if opts.RunID != "" {
		p.SourceRuns = []string{opts.RunID}
	}
	sort.Slice(outOrigins, func(i, j int) bool { return outOrigins[i] < outOrigins[j] })
	p.Origins = outOrigins
	for prefix, kinds := range rules {
		p.Rules = append(p.Rules, Rule{Prefix: prefix, Kinds: kindNamesOf(kinds)})
	}
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].Prefix < p.Rules[j].Prefix })
	p.AnyPathKinds = kindNamesOf(anyKinds)
	if c.win.peakR > 0 || c.win.peakW > 0 {
		h := opts.Headroom
		if h == 0 {
			h = 2
		}
		if h < 1 {
			h = 1
		}
		p.WindowOps = CeilingWindowOps
		p.ReadBytesPerWindow = int64(float64(c.win.peakR) * h)
		p.WriteBytesPerWindow = int64(float64(c.win.peakW) * h)
	}
	return p
}

// PrefixActivity rolls one origin's recorded activity up across every
// anchor at or beneath prefix — the subtree query the shared path trie
// answers by walking only the matching subtree, not every anchor the
// origin ever touched. The result's Kinds is the union of kinds seen
// anywhere in the subtree.
func (c *Collector) PrefixActivity(origin uint32, prefix string) PathActivity {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.origins[origin]
	if !ok {
		return PathActivity{}
	}
	var out PathActivity
	kinds := make(map[vfs.OpKind]bool)
	a.anchors.walkUnder(prefix, func(key string, an *anchorAgg) {
		if key == unknownAnchor {
			// Unattributed activity belongs to no subtree — a "/" rollup
			// must match what Profile() would derive for the tree.
			return
		}
		out.Ops += an.ops
		out.Bytes += an.bytes
		for kind := range an.kinds {
			kinds[kind] = true
		}
	})
	out.Kinds = kindNamesOf(kinds)
	return out
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
