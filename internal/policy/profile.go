package policy

import (
	"encoding/json"
	"fmt"
	"strings"

	"cntr/internal/vfs"
)

// Rule allows a set of operation kinds beneath one path prefix. A rule
// with prefix "/srv" and kinds ["lookup","read"] permits lookups and
// reads of "/srv" and everything under it.
type Rule struct {
	Prefix string   `json:"prefix"`
	Kinds  []string `json:"kinds"`
}

// FormatVersion is the profile format version this package writes.
// Version 1 profiles (no lifecycle header) are still loaded and
// enforced, unless they carry the version-1 lifetime byte ceilings
// (max_read_bytes, max_write_bytes), which nothing enforces any more:
// Load rejects those rather than drop a ceiling silently. Generation,
// Merge and Tighten always emit the current version.
const FormatVersion = 2

// Profile is a generated per-container allowlist: the operation kinds
// permitted per path subtree, kinds permitted regardless of path, and
// rate ceilings for the data path. The zero profile denies everything
// except housekeeping operations (see Enforcer).
//
// Version, Generation, Runs and SourceRuns form the lifecycle header: a
// fleet merges many recorded runs into one profile and diffs profiles
// across releases, so a profile must carry where it came from.
type Profile struct {
	// Version is the serialization format version (FormatVersion when
	// written by this package; absent in pre-lifecycle profiles).
	Version int `json:"version,omitempty"`
	// Generation counts lifecycle operations: a freshly generated
	// profile is generation 1, and every Merge or Tighten that changes
	// the profile bumps it past the inputs' maximum.
	Generation int `json:"generation,omitempty"`
	// Runs is how many recorded runs were merged into this profile (1
	// for a fresh recording).
	Runs int `json:"runs,omitempty"`
	// SourceRuns names the recorded runs this profile was derived from
	// (GenOptions.RunID), deduplicated across merges.
	SourceRuns []string `json:"source_runs,omitempty"`
	// Rules is the path-subtree allowlist; any matching rule permits
	// the operation.
	Rules []Rule `json:"rules"`
	// AnyPathKinds are kinds permitted at any path — operations whose
	// target could not be attributed to a path during recording.
	AnyPathKinds []string `json:"any_path_kinds,omitempty"`
	// WindowOps is the sliding window length for the rate ceilings,
	// measured in completed data operations (reads and writes), so the
	// window is clocked off the op stream and stays deterministic under
	// replay — wall-clock windows would not be. Zero means no windowed
	// ceilings; at most CeilingWindowOps. (A lifetime cap, the version-1
	// scheme, either over-tightens a long-lived mount or goes stale; a
	// rate cap does neither.)
	WindowOps int64 `json:"window_ops,omitempty"`
	// ReadBytesPerWindow / WriteBytesPerWindow cap the payload bytes
	// moved per direction within any WindowOps-operation window; zero
	// means unlimited.
	ReadBytesPerWindow  int64 `json:"read_bytes_per_window,omitempty"`
	WriteBytesPerWindow int64 `json:"write_bytes_per_window,omitempty"`
}

// Marshal serializes the profile as indented JSON.
func (p *Profile) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Load parses and validates a profile produced by Marshal.
func Load(data []byte) (*Profile, error) {
	var in struct {
		Profile
		MaxReadBytes  *int64 `json:"max_read_bytes"`
		MaxWriteBytes *int64 `json:"max_write_bytes"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("policy: parsing profile: %w", err)
	}
	if in.MaxReadBytes != nil || in.MaxWriteBytes != nil {
		field, windowed := "max_read_bytes", "read_bytes_per_window"
		if in.MaxReadBytes == nil {
			field, windowed = "max_write_bytes", "write_bytes_per_window"
		}
		return nil, fmt.Errorf("policy: %s is a version-1 lifetime ceiling, no longer enforced; express it as window_ops and %s", field, windowed)
	}
	p := in.Profile
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Prefix == "" || !strings.HasPrefix(r.Prefix, "/") {
			return nil, fmt.Errorf("policy: rule prefix %q is not absolute", r.Prefix)
		}
		// Normalize hand-edited trailing slashes: "/data/" would match
		// nothing (prefix comparison appends its own separator).
		for len(r.Prefix) > 1 && strings.HasSuffix(r.Prefix, "/") {
			r.Prefix = r.Prefix[:len(r.Prefix)-1]
		}
		for _, k := range r.Kinds {
			if _, ok := vfs.KindFromString(k); !ok {
				return nil, fmt.Errorf("policy: rule %q has unknown kind %q", r.Prefix, k)
			}
		}
	}
	for _, k := range p.AnyPathKinds {
		if _, ok := vfs.KindFromString(k); !ok {
			return nil, fmt.Errorf("policy: unknown any-path kind %q", k)
		}
	}
	if p.Version > FormatVersion {
		return nil, fmt.Errorf("policy: profile version %d is newer than supported %d", p.Version, FormatVersion)
	}
	if err := p.checkWindow(); err != nil {
		return nil, err
	}
	// Marshal omits an empty list, so Load reads one as absent.
	if len(p.SourceRuns) == 0 {
		p.SourceRuns = nil
	}
	if len(p.AnyPathKinds) == 0 {
		p.AnyPathKinds = nil
	}
	return &p, nil
}

// checkWindow refuses windowed ceilings the enforcer cannot track: Load
// applies it to a profile read from a file, NewEnforcer to one built in
// code.
func (p *Profile) checkWindow() error {
	if p.WindowOps < 0 || p.WindowOps > CeilingWindowOps {
		return fmt.Errorf("policy: window_ops %d outside [0, %d]", p.WindowOps, CeilingWindowOps)
	}
	if p.WindowOps == 0 && (p.ReadBytesPerWindow != 0 || p.WriteBytesPerWindow != 0) {
		return fmt.Errorf("policy: windowed byte ceilings without window_ops")
	}
	if p.ReadBytesPerWindow < 0 || p.WriteBytesPerWindow < 0 {
		return fmt.Errorf("policy: negative windowed byte ceiling")
	}
	return nil
}

// Matcher is a profile compiled for rule lookup on the hot path: the
// rules are indexed in a path-component trie, so one lookup walks
// O(path depth) nodes no matter how many rules the profile holds.
type Matcher struct {
	trie     *pathTrie[uint64] // per-subtree kind masks
	anyKinds uint64
}

func kindBit(k vfs.OpKind) uint64 { return 1 << uint(k) }

// kindMask folds kind names into a bitmask. The "any" wildcard (which
// hand-edited profiles may use) expands to all kinds — matching is done
// against concrete kind bits, so KindAny's own bit would match nothing.
func kindMask(names []string) uint64 {
	var mask uint64
	for _, name := range names {
		if k, ok := vfs.KindFromString(name); ok {
			if k == vfs.KindAny {
				return ^uint64(0)
			}
			mask |= kindBit(k)
		}
	}
	return mask
}

// Compile folds the profile's name lists into bitmasks and indexes the
// rules in a path-component trie: each rule's kind mask lands on the
// node for its prefix, and a lookup ORs the masks of every stored
// prefix on the way down to the target path. Unknown kind names are
// ignored (Load rejects them earlier).
func (p *Profile) Compile() *Matcher {
	m := &Matcher{trie: &pathTrie[uint64]{}, anyKinds: kindMask(p.AnyPathKinds)}
	for _, r := range p.Rules {
		node := m.trie.at(r.Prefix)
		if !node.set {
			node.key, node.set = r.Prefix, true
			m.trie.n++
		}
		node.val |= kindMask(r.Kinds)
	}
	return m
}

// Allows reports whether the matcher permits kind at path. An empty
// path means the target is unknown; only any-path kinds apply. The
// lookup is O(path components) — independent of how many rules the
// profile holds.
func (m *Matcher) Allows(kind vfs.OpKind, path string) bool {
	return m.allowsEntry(kind, path, "")
}

// allowsEntry is Allows(kind, pathJoin(path, name)) for a non-empty name,
// and Allows(kind, path) without one: the enforcer asks about a directory
// entry on every lookup of every path walk, and does not build a string
// to do it.
func (m *Matcher) allowsEntry(kind vfs.OpKind, path, name string) bool {
	bit := kindBit(kind)
	if m.anyKinds&bit != 0 {
		return true
	}
	if path == "" {
		return false
	}
	allowed := false
	m.trie.visitPrefixes(path, name, func(mask uint64) bool {
		if mask&bit != 0 {
			allowed = true
			return false
		}
		return true
	})
	return allowed
}
