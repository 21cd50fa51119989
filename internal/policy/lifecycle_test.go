package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cntr/internal/vfs"
)

// headerProfile sets every field a profile has.
func headerProfile() *Profile {
	return &Profile{
		Version:             FormatVersion,
		Generation:          3,
		Runs:                2,
		SourceRuns:          []string{"run-a", "run-b"},
		Origins:             []uint32{7, 9},
		Rules:               []Rule{{Prefix: "/data", Kinds: []string{"read", "write"}}},
		AnyPathKinds:        []string{"statfs"},
		MaxReadBytes:        1 << 20,
		MaxWriteBytes:       2 << 20,
		WindowOps:           512,
		ReadBytesPerWindow:  64 << 10,
		WriteBytesPerWindow: 128 << 10,
	}
}

// TestProfileHeaderRoundTrip: every lifecycle field — version header,
// merge provenance, windowed ceilings — must survive Marshal/Load.
func TestProfileHeaderRoundTrip(t *testing.T) {
	p := headerProfile()
	blob, err := p.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	loaded, err := Load(blob)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(p, loaded) {
		t.Fatalf("round trip lost fields:\nwant %+v\ngot  %+v", p, loaded)
	}
}

// malformedLifecycle are profiles whose lifecycle fields Load rejects.
var malformedLifecycle = []string{
	`{"rules":[],"read_bytes_per_window":10}`,
	`{"rules":[],"window_ops":-1}`,
	`{"rules":[],"window_ops":4,"write_bytes_per_window":-5}`,
	fmt.Sprintf(`{"rules":[],"version":%d}`, FormatVersion+1),
}

// TestLoadRejectsMalformedLifecycle: the new fields are validated, not
// just parsed.
func TestLoadRejectsMalformedLifecycle(t *testing.T) {
	for _, bad := range malformedLifecycle {
		if _, err := Load([]byte(bad)); err == nil {
			t.Errorf("Load accepted malformed profile %s", bad)
		}
	}
}

// randProfile generates a deterministic pseudo-random profile for the
// lifecycle property tests.
func randProfile(r *rand.Rand) *Profile {
	kinds := []string{"lookup", "read", "write", "create", "mkdir", "unlink", "getattr", "readdir"}
	prefixes := []string{"/", "/data", "/data/a", "/srv", "/srv/www", "/var/log", "/etc"}
	p := &Profile{
		Version:    FormatVersion,
		Generation: 1 + r.Intn(3),
		Runs:       1 + r.Intn(2),
		SourceRuns: []string{fmt.Sprintf("run-%d", r.Intn(100))},
		Origins:    []uint32{uint32(1 + r.Intn(5))},
	}
	used := make(map[string]bool)
	for i := 0; i < 1+r.Intn(4); i++ {
		prefix := prefixes[r.Intn(len(prefixes))]
		if used[prefix] {
			continue
		}
		used[prefix] = true
		var ks []string
		for _, k := range kinds {
			if r.Intn(3) == 0 {
				ks = append(ks, k)
			}
		}
		if len(ks) == 0 {
			ks = []string{"lookup"}
		}
		p.Rules = append(p.Rules, Rule{Prefix: prefix, Kinds: ks})
	}
	sortRules(p.Rules)
	for _, k := range kinds {
		if r.Intn(8) == 0 {
			p.AnyPathKinds = append(p.AnyPathKinds, k)
		}
	}
	if r.Intn(2) == 0 {
		p.WindowOps = int64(256 << r.Intn(3)) // 256, 512 or 1024
		p.ReadBytesPerWindow = int64(r.Intn(1 << 20))
		p.WriteBytesPerWindow = int64(r.Intn(1 << 20))
	}
	if r.Intn(4) == 0 {
		p.MaxReadBytes = int64(1 + r.Intn(1<<24))
	}
	if r.Intn(4) == 0 {
		p.MaxWriteBytes = int64(1 + r.Intn(1<<24))
	}
	return p
}

// assertSemanticEqual compares everything but the provenance header
// (Runs/SourceRuns/Generation count recordings and lifecycle steps, so
// they are deliberately not idempotent).
func assertSemanticEqual(t *testing.T, scenario string, a, b *Profile) {
	t.Helper()
	type semantic struct {
		Rules        []Rule
		AnyPathKinds []string
		Origins      []uint32
		Ceilings     [5]int64
	}
	sem := func(p *Profile) semantic {
		return semantic{
			Rules: p.Rules, AnyPathKinds: p.AnyPathKinds, Origins: p.Origins,
			Ceilings: [5]int64{p.MaxReadBytes, p.MaxWriteBytes, p.WindowOps,
				p.ReadBytesPerWindow, p.WriteBytesPerWindow},
		}
	}
	if sa, sb := sem(a), sem(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: profiles diverge semantically:\n%+v\n%+v", scenario, sa, sb)
	}
}

// TestMergePropertyIdempotent: merging a profile with itself adds
// nothing (at headroom 1, where the ceiling max is exact).
func TestMergePropertyIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	opts := MergeOptions{Headroom: 1}
	for i := 0; i < 200; i++ {
		p := randProfile(r)
		once := Merge(opts, p)
		twice := Merge(opts, p, p)
		assertSemanticEqual(t, fmt.Sprintf("iteration %d", i), once, twice)
	}
}

// TestMergePropertyCommutative: input order must not matter — down to
// the provenance header, which sums and sorts.
func TestMergePropertyCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b, c := randProfile(r), randProfile(r), randProfile(r)
		opts := MergeOptions{}
		if i%2 == 0 {
			opts.Headroom = 1
		}
		ab := Merge(opts, a, b, c)
		ba := Merge(opts, c, b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("iteration %d: merge not commutative:\n%+v\n%+v", i, ab, ba)
		}
	}
}

// TestMergePropertyUnion: anything an input permits, the merge permits.
func TestMergePropertyUnion(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	paths := []string{"", "/", "/data", "/data/a/file", "/srv/www/idx", "/var/log/x", "/etc/passwd", "/other"}
	kinds := []vfs.OpKind{vfs.KindLookup, vfs.KindRead, vfs.KindWrite, vfs.KindCreate, vfs.KindMkdir}
	for i := 0; i < 100; i++ {
		a, b := randProfile(r), randProfile(r)
		m := Merge(MergeOptions{}, a, b)
		am, bm, mm := a.Compile(), b.Compile(), m.Compile()
		for _, path := range paths {
			for _, k := range kinds {
				if (am.Allows(k, path) || bm.Allows(k, path)) && !mm.Allows(k, path) {
					t.Fatalf("iteration %d: merge lost permission %v at %q", i, k, path)
				}
			}
		}
	}
}

// TestDiffPropertySelfEmpty: Diff(p, p) must be empty for any profile.
func TestDiffPropertySelfEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		p := randProfile(r)
		if d := Diff(p, p); !d.Empty() {
			t.Fatalf("iteration %d: Diff(p, p) not empty: %s\n%+v", i, d.Summary(), d)
		}
	}
}

// TestDiffReportsStructuredDelta pins each delta category on a
// hand-built pair.
func TestDiffReportsStructuredDelta(t *testing.T) {
	oldP := &Profile{
		Generation:   1,
		Rules:        []Rule{{Prefix: "/data", Kinds: []string{"read"}}, {Prefix: "/gone", Kinds: []string{"lookup"}}},
		AnyPathKinds: []string{"statfs"},
		WindowOps:    512, WriteBytesPerWindow: 100,
	}
	newP := &Profile{
		Generation:   2,
		Rules:        []Rule{{Prefix: "/data", Kinds: []string{"read", "write"}}, {Prefix: "/new", Kinds: []string{"create"}}},
		AnyPathKinds: []string{"flush"},
		WindowOps:    512, WriteBytesPerWindow: 250,
	}
	d := Diff(oldP, newP)
	if d.Empty() {
		t.Fatal("structured delta reported empty")
	}
	if len(d.RulesAdded) != 1 || d.RulesAdded[0].Prefix != "/new" {
		t.Fatalf("rules added: %+v", d.RulesAdded)
	}
	if len(d.RulesRemoved) != 1 || d.RulesRemoved[0].Prefix != "/gone" {
		t.Fatalf("rules removed: %+v", d.RulesRemoved)
	}
	if len(d.RulesWidened) != 1 || d.RulesWidened[0].Prefix != "/data" ||
		!reflect.DeepEqual(d.RulesWidened[0].Kinds, []string{"write"}) {
		t.Fatalf("rules widened: %+v", d.RulesWidened)
	}
	if len(d.RulesNarrowed) != 0 {
		t.Fatalf("rules narrowed: %+v", d.RulesNarrowed)
	}
	if !reflect.DeepEqual(d.AnyPathAdded, []string{"flush"}) ||
		!reflect.DeepEqual(d.AnyPathRemoved, []string{"statfs"}) {
		t.Fatalf("any-path deltas: +%v -%v", d.AnyPathAdded, d.AnyPathRemoved)
	}
	if len(d.Ceilings) != 1 || d.Ceilings[0].Name != "write_bytes_per_window" ||
		d.Ceilings[0].Old != 100 || d.Ceilings[0].New != 250 {
		t.Fatalf("ceiling deltas: %+v", d.Ceilings)
	}
	if d.Summary() == "" || d.Summary() == "no changes" {
		t.Fatalf("summary: %q", d.Summary())
	}
}

// TestTightenAnchorsSharedPrefix: an any-path kind whose rule evidence
// shares a prefix becomes a path-anchored rule there; kinds with no
// evidence, or only "/" in common, stay any-path.
func TestTightenAnchorsSharedPrefix(t *testing.T) {
	p := &Profile{
		Generation: 1,
		Rules: []Rule{
			{Prefix: "/data/a", Kinds: []string{"read"}},
			{Prefix: "/data/b", Kinds: []string{"read", "write"}},
			{Prefix: "/etc", Kinds: []string{"lookup"}},
		},
		AnyPathKinds: []string{"getattr", "lookup", "read"},
	}
	tightened, rep := Tighten(p)
	// "read" appears under /data/a and /data/b → anchored at /data;
	// "lookup"'s only evidence is /etc → anchored there; "getattr" has
	// no rule evidence → kept any-path.
	want := []Rule{{Prefix: "/data", Kinds: []string{"read"}}, {Prefix: "/etc", Kinds: []string{"lookup"}}}
	if !reflect.DeepEqual(rep.Anchored, want) {
		t.Fatalf("anchored: %+v", rep.Anchored)
	}
	if !reflect.DeepEqual(rep.Kept, []string{"getattr"}) {
		t.Fatalf("kept: %+v", rep.Kept)
	}
	if !tightened.Allows(vfs.KindRead, "/data/c/file") {
		t.Fatal("anchored read not allowed under /data")
	}
	if tightened.Allows(vfs.KindRead, "/elsewhere") {
		t.Fatal("tightened read still allowed outside /data")
	}
	if tightened.Allows(vfs.KindRead, "") {
		t.Fatal("tightened read still allowed with unknown path")
	}
	if !tightened.Allows(vfs.KindGetattr, "/anywhere") || !tightened.Allows(vfs.KindGetattr, "") {
		t.Fatal("unanchorable getattr lost its any-path grant")
	}
	if tightened.Generation != p.Generation+1 {
		t.Fatalf("generation = %d, want %d", tightened.Generation, p.Generation+1)
	}
	// The input profile must not be mutated.
	if len(p.AnyPathKinds) != 3 {
		t.Fatalf("input profile mutated: %+v", p.AnyPathKinds)
	}

	// A kind whose evidence spans disjoint top-level trees shares only
	// "/" — tightening it would deny the unattributed ops it exists
	// for, so it stays.
	spread := &Profile{
		Rules: []Rule{
			{Prefix: "/data", Kinds: []string{"write"}},
			{Prefix: "/etc", Kinds: []string{"write"}},
		},
		AnyPathKinds: []string{"write"},
	}
	st, srep := Tighten(spread)
	if len(srep.Anchored) != 0 || !st.Allows(vfs.KindWrite, "") {
		t.Fatalf("disjoint-evidence kind was anchored: %+v", srep)
	}
}

// TestWindowedCeilingEnforcement: the sliding-window rate ceiling trips
// once the window saturates and recovers as completed data operations
// slide old volume out — unlike the retired lifetime ceilings, which
// wedged the direction forever.
func TestWindowedCeilingEnforcement(t *testing.T) {
	p := &Profile{
		Rules:               []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
		WindowOps:           4,
		WriteBytesPerWindow: 100,
	}
	enf := NewEnforcer(p, false)
	op := vfs.RootOp()
	complete := func(kind vfs.OpKind, bytes int) error {
		info := vfs.OpInfo{Kind: kind, Op: op, Ino: vfs.RootIno}
		return enf.Intercept(&info, func() error { info.Bytes = bytes; return nil })
	}
	// Four 30-byte writes fill the window to 120 >= 100.
	for i := 0; i < 4; i++ {
		if err := complete(vfs.KindWrite, 30); err != nil {
			t.Fatalf("write %d under the ceiling: %v", i, err)
		}
	}
	if err := complete(vfs.KindWrite, 30); err != vfs.EACCES {
		t.Fatalf("saturated window admitted a write: %v", err)
	}
	found := false
	for _, v := range enf.Violations() {
		if v.Reason == "write rate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no write-rate violation recorded: %+v", enf.Violations())
	}
	// Completed reads advance the op clock; four of them evict the four
	// write entries and the direction recovers.
	for i := 0; i < 4; i++ {
		if err := complete(vfs.KindRead, 1); err != nil {
			t.Fatalf("read %d during recovery: %v", i, err)
		}
	}
	if err := complete(vfs.KindWrite, 30); err != nil {
		t.Fatalf("window slid but write still denied: %v", err)
	}
}
