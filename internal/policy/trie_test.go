package policy

import (
	"fmt"
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
