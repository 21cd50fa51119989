package policy

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cntr/internal/vfs"
)

// linearAllows is the pre-trie reference matcher: it scans every rule
// per lookup and matches subtrees by string prefix. The oracle side of
// TestMatcherTrieMatchesLinear.
func linearAllows(p *Profile, kind vfs.OpKind, path string) bool {
	bit := kindBit(kind)
	if kindMask(p.AnyPathKinds)&bit != 0 {
		return true
	}
	if path == "" {
		return false
	}
	for _, r := range p.Rules {
		if kindMask(r.Kinds)&bit == 0 {
			continue
		}
		if path == r.Prefix || (r.Prefix == "/" && strings.HasPrefix(path, "/")) ||
			strings.HasPrefix(path, r.Prefix+"/") {
			return true
		}
	}
	return false
}

// TestMatcherTrieMatchesLinear is the differential check behind the trie
// rewrite: for a rule set full of nested, sibling and near-miss
// prefixes, the trie matcher must agree with the pre-trie linear scan on
// every (kind, path) probe.
func TestMatcherTrieMatchesLinear(t *testing.T) {
	p := &Profile{
		Rules: []Rule{
			{Prefix: "/", Kinds: []string{"statfs"}},
			{Prefix: "/srv", Kinds: []string{"lookup"}},
			{Prefix: "/srv/app", Kinds: []string{"read"}},
			{Prefix: "/srv/app/data", Kinds: []string{"write"}},
			{Prefix: "/srv/app2", Kinds: []string{"unlink"}},
			{Prefix: "/etc", Kinds: []string{"read", "getattr"}},
			{Prefix: "/var/log", Kinds: []string{"write"}},
		},
		AnyPathKinds: []string{"flush"},
	}
	trie := p.Compile()

	paths := []string{
		"", "/", "/srv", "/srv/app", "/srv/app/data", "/srv/app/data/x/y",
		"/srv/app2", "/srv/app23", "/srv/appx", "/srv/ap", "/etc",
		"/etc/passwd", "/var", "/var/log", "/var/logs", "/var/log/syslog",
		"/unrelated", "/srv/app/datax",
	}
	kinds := []vfs.OpKind{
		vfs.KindLookup, vfs.KindRead, vfs.KindWrite, vfs.KindUnlink,
		vfs.KindGetattr, vfs.KindStatfs, vfs.KindFlush, vfs.KindMkdir,
	}
	for _, path := range paths {
		for _, kind := range kinds {
			got, want := trie.Allows(kind, path), linearAllows(p, kind, path)
			if got != want {
				t.Errorf("Allows(%v, %q): trie=%v linear=%v", kind, path, got, want)
			}
			// The enforcer asks about a directory entry in two halves,
			// the directory's learned path and the entry's name, and is
			// answered as if it had joined them.
			if i := strings.LastIndex(path, "/"); i >= 0 && path != "/" {
				dir, name := path[:i], path[i+1:]
				if dir == "" {
					dir = "/"
				}
				if got := trie.allowsEntry(kind, dir, name); got != want {
					t.Errorf("allowsEntry(%v, %q, %q) = %v, linear on the joined path %v", kind, dir, name, got, want)
				}
				if entryPath(dir, name) != path || !isEntryPath(path, dir, name) ||
					isEntryPath(path+"x", dir, name) || isEntryPath(dir, dir, name) || isEntryPath("", dir, name) {
					t.Errorf("entryPath/isEntryPath disagree on %q + %q", dir, name)
				}
			}
		}
	}
	if entryPath("", "x") != "" || entryPath("/d", "") != "/d" || !isEntryPath("", "", "x") || !isEntryPath("/d", "/d", "") {
		t.Error("an unknown directory has no entry paths, and no name means the directory itself")
	}
	if trie.allowsEntry(vfs.KindLookup, "", "srv") {
		t.Error("an entry of a directory whose path is unknown matched a path rule")
	}
}

// TestMatcherTrieDeepProfile: lookup cost aside, correctness must hold
// when the profile holds many disjoint subtrees — the regime the trie
// exists for — including the deterministic deny of near-miss siblings.
func TestMatcherTrieDeepProfile(t *testing.T) {
	p := &Profile{}
	for i := 0; i < 500; i++ {
		p.Rules = append(p.Rules, Rule{
			Prefix: fmt.Sprintf("/srv/app%03d/data", i),
			Kinds:  []string{"read", "lookup"},
		})
	}
	m := p.Compile()
	if !m.Allows(vfs.KindRead, "/srv/app499/data/logs/x.log") {
		t.Fatal("deep rule did not match its own subtree")
	}
	if m.Allows(vfs.KindRead, "/srv/app499/datax") {
		t.Fatal("sibling with shared byte-prefix matched (component matching broken)")
	}
	if m.Allows(vfs.KindWrite, "/srv/app499/data/x") {
		t.Fatal("kind outside the rule's mask allowed")
	}
	if m.Allows(vfs.KindRead, "/srv/app500/data") {
		t.Fatal("unlisted subtree allowed")
	}
}

// mkEntry builds a lookup-style entry that binds (parent, name) → ino.
func mkEntry(pid uint32, kind vfs.OpKind, ino, result vfs.Ino, name string, bytes int, errno vfs.Errno) vfs.TraceEntry {
	return vfs.TraceEntry{Kind: kind, PID: pid, Ino: ino, ResultIno: result,
		Name: name, Bytes: bytes, Errno: errno}
}

// TestCollectorPrefixActivity: the trie rollup sums a subtree and only
// that subtree.
func TestCollectorPrefixActivity(t *testing.T) {
	c := NewCollector()
	for _, e := range []vfs.TraceEntry{
		mkEntry(7, vfs.KindLookup, vfs.RootIno, 2, "srv", 0, vfs.OK),
		mkEntry(7, vfs.KindMkdir, 2, 3, "data", 0, vfs.OK),
		mkEntry(7, vfs.KindCreate, 3, 4, "f", 0, vfs.OK),
		mkEntry(7, vfs.KindWrite, 4, 0, "", 100, vfs.OK),
		mkEntry(7, vfs.KindLookup, vfs.RootIno, 5, "etc", 0, vfs.OK),
		mkEntry(7, vfs.KindGetattr, 5, 0, "", 0, vfs.OK),
	} {
		c.Sink(e)
	}
	srv := c.PrefixActivity(7, "/srv")
	// Anchored beneath /srv: the mkdir (anchor /srv), create (anchor
	// /srv/data) and write (anchor /srv/data/f).
	if srv.Ops != 3 || srv.Bytes != 100 {
		t.Fatalf("/srv rollup = %+v, want 3 ops / 100 bytes", srv)
	}
	wantKinds := []string{"create", "mkdir", "write"}
	gotKinds := append([]string(nil), srv.Kinds...)
	sort.Strings(gotKinds)
	if !reflect.DeepEqual(gotKinds, wantKinds) {
		t.Fatalf("/srv rollup kinds = %v, want %v", gotKinds, wantKinds)
	}
	// Unattributed activity (the "?" anchor) stays out of every subtree
	// rollup, including "/": PrefixActivity must agree with Profile(),
	// which routes unknown-path activity to the any-path kinds instead.
	c.Sink(mkEntry(7, vfs.KindRead, 999, 0, "", 77, vfs.OK))
	if all := c.PrefixActivity(7, "/"); all.Ops != 6 || all.Bytes != 100 {
		t.Fatalf("/ rollup = %+v, want 6 ops / 100 bytes (unknown anchor excluded)", all)
	}
	if none := c.PrefixActivity(7, "/nope"); none.Ops != 0 {
		t.Fatalf("/nope rollup = %+v, want empty", none)
	}
	if other := c.PrefixActivity(99, "/"); other.Ops != 0 {
		t.Fatalf("unknown origin rollup = %+v, want empty", other)
	}
}
