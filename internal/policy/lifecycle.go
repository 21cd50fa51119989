package policy

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the profile lifecycle: a fleet records many runs per
// image across releases, so profiles must be mergeable (union the
// behaviour of independent recordings), diffable (what did the new
// release start touching?) and tightenable (anchor any-path kinds once
// the evidence shows where they live). All three operate on the JSON
// form a Collector generates and an Enforcer consumes; none need the
// recording that produced their inputs.

// MergeOptions tunes Merge.
type MergeOptions struct {
	// Headroom multiplies the merged ceilings on top of the per-input
	// maximum, absorbing run-to-run variance the recordings themselves
	// did not cover. Zero means the default 1.25; values below 1 clamp
	// to 1 (plain max — what the property tests use, since max alone is
	// idempotent and headroom is not).
	Headroom float64
}

// Merge unions profiles into one: a rule set permitting everything any
// input permitted (kind union per prefix — widening), any-path kinds
// unioned, and every ceiling at the inputs' maximum
// times the headroom. An input with a ceiling disabled (zero) disables
// it in the merge too — union semantics make the widest input win.
//
// Provenance: Runs sums the inputs' run counts, SourceRuns concatenates
// and deduplicates, and Generation moves past every input's. Rules,
// kinds and ceilings are independent of input order and of
// duplicated inputs; the provenance header is not (Runs counts
// recordings, deliberately).
func Merge(opts MergeOptions, profiles ...*Profile) *Profile {
	h := opts.Headroom
	if h == 0 {
		h = 1.25
	}
	if h < 1 {
		h = 1
	}
	out := &Profile{Version: FormatVersion}
	rules := make(map[string]map[string]bool)
	anyKinds := make(map[string]bool)
	sources := make(map[string]bool)
	inputs := make([]*Profile, 0, len(profiles))
	for _, p := range profiles {
		if p == nil {
			continue
		}
		inputs = append(inputs, p)
		for _, r := range p.Rules {
			ks := rules[r.Prefix]
			if ks == nil {
				ks = make(map[string]bool)
				rules[r.Prefix] = ks
			}
			for _, k := range r.Kinds {
				ks[k] = true
			}
		}
		for _, k := range p.AnyPathKinds {
			anyKinds[k] = true
		}
		for _, s := range p.SourceRuns {
			if !sources[s] {
				sources[s] = true
				out.SourceRuns = append(out.SourceRuns, s)
			}
		}
		runs := p.Runs
		if runs == 0 {
			runs = 1
		}
		out.Runs += runs
		if p.Generation >= out.Generation {
			out.Generation = p.Generation + 1
		}
	}
	foldCeilings(out, inputs)
	if out.Generation == 0 {
		out.Generation = 1
	}
	for prefix, ks := range rules {
		out.Rules = append(out.Rules, Rule{Prefix: prefix, Kinds: sortedKinds(ks)})
	}
	sort.Slice(out.Rules, func(i, j int) bool { return out.Rules[i].Prefix < out.Rules[j].Prefix })
	out.AnyPathKinds = sortedKinds(anyKinds)
	sort.Strings(out.SourceRuns)
	applyHeadroom(out, h)
	return out
}

// foldCeilings computes the merged ceilings: maximum per field, with
// zero (disabled) dominating — the merged profile must permit whatever
// any input permitted. Windowed ceilings recorded over different window
// lengths are each normalized straight to the longest input window
// before the max (rate scaled linearly — conservative headroom, not an
// exact peak), so the result is independent of input order.
func foldCeilings(out *Profile, inputs []*Profile) {
	if len(inputs) == 0 {
		return
	}
	var win int64
	for _, p := range inputs {
		if p.WindowOps == 0 {
			// An input with no windowed ceilings: unlimited wins.
			return
		}
		if p.WindowOps > win {
			win = p.WindowOps
		}
	}
	scale := func(v, from int64) int64 {
		if v == 0 || from == win {
			return v
		}
		return v * win / from
	}
	r := scale(inputs[0].ReadBytesPerWindow, inputs[0].WindowOps)
	w := scale(inputs[0].WriteBytesPerWindow, inputs[0].WindowOps)
	for _, p := range inputs[1:] {
		r = mergeCeiling(r, scale(p.ReadBytesPerWindow, p.WindowOps))
		w = mergeCeiling(w, scale(p.WriteBytesPerWindow, p.WindowOps))
	}
	out.WindowOps, out.ReadBytesPerWindow, out.WriteBytesPerWindow = win, r, w
}

// mergeCeiling is max with zero-dominates (zero means unlimited).
func mergeCeiling(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if b > a {
		return b
	}
	return a
}

// applyHeadroom scales the merged ceilings.
func applyHeadroom(p *Profile, h float64) {
	if h == 1 {
		return
	}
	scale := func(v int64) int64 { return int64(float64(v) * h) }
	p.ReadBytesPerWindow = scale(p.ReadBytesPerWindow)
	p.WriteBytesPerWindow = scale(p.WriteBytesPerWindow)
}

// sortedKinds renders a kind-name set as a sorted list.
func sortedKinds(ks map[string]bool) []string {
	out := make([]string, 0, len(ks))
	for k := range ks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CeilingDelta is one ceiling field that changed between two profiles.
type CeilingDelta struct {
	Name string `json:"name"`
	Old  int64  `json:"old"`
	New  int64  `json:"new"`
}

// DiffReport is the structured delta between two profiles — "what did
// the new release start (or stop) touching?". Rules are compared by
// prefix: a prefix only in the new profile is added, only in the old is
// removed, and a shared prefix whose kind set grew or shrank appears in
// RulesWidened/RulesNarrowed carrying just the changed kinds.
type DiffReport struct {
	OldGeneration int `json:"old_generation,omitempty"`
	NewGeneration int `json:"new_generation,omitempty"`

	RulesAdded    []Rule `json:"rules_added,omitempty"`
	RulesRemoved  []Rule `json:"rules_removed,omitempty"`
	RulesWidened  []Rule `json:"rules_widened,omitempty"`
	RulesNarrowed []Rule `json:"rules_narrowed,omitempty"`

	AnyPathAdded   []string `json:"any_path_added,omitempty"`
	AnyPathRemoved []string `json:"any_path_removed,omitempty"`

	Ceilings []CeilingDelta `json:"ceilings,omitempty"`
}

// Diff computes the structured delta from old to new. A nil profile
// counts as empty, so Diff(nil, p) reports p's whole surface as added.
func Diff(oldP, newP *Profile) *DiffReport {
	if oldP == nil {
		oldP = &Profile{}
	}
	if newP == nil {
		newP = &Profile{}
	}
	d := &DiffReport{OldGeneration: oldP.Generation, NewGeneration: newP.Generation}

	oldRules := rulesByPrefix(oldP)
	newRules := rulesByPrefix(newP)
	for prefix, nks := range newRules {
		oks, ok := oldRules[prefix]
		if !ok {
			d.RulesAdded = append(d.RulesAdded, Rule{Prefix: prefix, Kinds: sortedKinds(nks)})
			continue
		}
		if added := kindsMissing(nks, oks); len(added) > 0 {
			d.RulesWidened = append(d.RulesWidened, Rule{Prefix: prefix, Kinds: added})
		}
		if removed := kindsMissing(oks, nks); len(removed) > 0 {
			d.RulesNarrowed = append(d.RulesNarrowed, Rule{Prefix: prefix, Kinds: removed})
		}
	}
	for prefix, oks := range oldRules {
		if _, ok := newRules[prefix]; !ok {
			d.RulesRemoved = append(d.RulesRemoved, Rule{Prefix: prefix, Kinds: sortedKinds(oks)})
		}
	}
	sortRules(d.RulesAdded)
	sortRules(d.RulesRemoved)
	sortRules(d.RulesWidened)
	sortRules(d.RulesNarrowed)

	oldAny := kindSet(oldP.AnyPathKinds)
	newAny := kindSet(newP.AnyPathKinds)
	d.AnyPathAdded = kindsMissing(newAny, oldAny)
	d.AnyPathRemoved = kindsMissing(oldAny, newAny)

	ceil := func(name string, o, n int64) {
		if o != n {
			d.Ceilings = append(d.Ceilings, CeilingDelta{Name: name, Old: o, New: n})
		}
	}
	ceil("window_ops", oldP.WindowOps, newP.WindowOps)
	ceil("read_bytes_per_window", oldP.ReadBytesPerWindow, newP.ReadBytesPerWindow)
	ceil("write_bytes_per_window", oldP.WriteBytesPerWindow, newP.WriteBytesPerWindow)
	return d
}

// Empty reports whether the diff carries no behavioural change (the
// generation header alone does not count).
func (d *DiffReport) Empty() bool {
	return len(d.RulesAdded) == 0 && len(d.RulesRemoved) == 0 &&
		len(d.RulesWidened) == 0 && len(d.RulesNarrowed) == 0 &&
		len(d.AnyPathAdded) == 0 && len(d.AnyPathRemoved) == 0 &&
		len(d.Ceilings) == 0
}

// Summary renders the diff as one line for logs and the /proc policy
// view.
func (d *DiffReport) Summary() string {
	if d.Empty() {
		return "no changes"
	}
	var parts []string
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(len(d.RulesAdded), "rules added")
	add(len(d.RulesRemoved), "rules removed")
	add(len(d.RulesWidened), "rules widened")
	add(len(d.RulesNarrowed), "rules narrowed")
	add(len(d.AnyPathAdded), "any-path kinds added")
	add(len(d.AnyPathRemoved), "any-path kinds removed")
	add(len(d.Ceilings), "ceilings changed")
	return strings.Join(parts, ", ")
}

// rulesByPrefix indexes a profile's rules as prefix → kind set.
func rulesByPrefix(p *Profile) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(p.Rules))
	for _, r := range p.Rules {
		ks := out[r.Prefix]
		if ks == nil {
			ks = make(map[string]bool, len(r.Kinds))
			out[r.Prefix] = ks
		}
		for _, k := range r.Kinds {
			ks[k] = true
		}
	}
	return out
}

func kindSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, k := range names {
		out[k] = true
	}
	return out
}

// kindsMissing returns the kinds in a but not in b, sorted.
func kindsMissing(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func sortRules(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Prefix < rs[j].Prefix })
}

// TightenReport says what Tighten did.
type TightenReport struct {
	// Anchored lists the any-path kinds that were converted into
	// path-anchored rules, each with the prefix it was anchored at.
	Anchored []Rule `json:"anchored,omitempty"`
	// Kept lists the any-path kinds left in place: either no rule
	// mentions the kind (no path evidence at all) or the only shared
	// prefix is "/" (anchoring there would deny the very unattributed
	// operations the any-path entry exists for, with no scoping gained).
	Kept []string `json:"kept,omitempty"`
}

// Tighten narrows a profile's any-path kinds: when every path-anchored
// rule mentioning a kind lives under one common prefix deeper than "/",
// the observed operations of that kind all share that prefix — so the
// any-path grant (which matches *everything*, including operations with
// no resolvable path) is replaced by a rule anchored at the common
// prefix. Kinds with no rule evidence, or whose rules only share "/",
// are kept any-path. Returns the tightened profile (the input is not
// modified) and a report of what moved; Generation advances only if
// something did.
func Tighten(p *Profile) (*Profile, *TightenReport) {
	out := cloneProfile(p)
	rep := &TightenReport{}
	rules := rulesByPrefix(p)
	var kept []string
	for _, kind := range p.AnyPathKinds {
		anchor := ""
		found := false
		for prefix, ks := range rules {
			if !ks[kind] && !ks["any"] {
				continue
			}
			if !found {
				anchor, found = prefix, true
			} else {
				anchor = commonPrefix(anchor, prefix)
			}
		}
		if !found || anchor == "/" || anchor == "" {
			kept = append(kept, kind)
			continue
		}
		rep.Anchored = append(rep.Anchored, Rule{Prefix: anchor, Kinds: []string{kind}})
		addRuleKind(out, anchor, kind)
	}
	sort.Strings(kept)
	out.AnyPathKinds = kept
	rep.Kept = kept
	sortRules(rep.Anchored)
	if len(rep.Anchored) > 0 {
		out.Version = FormatVersion
		out.Generation = p.Generation + 1
	}
	return out, rep
}

// commonPrefix returns the deepest path prefix shared by two absolute
// paths, component-wise ("/a/bc" and "/a/bd" share "/a", not "/a/b").
func commonPrefix(a, b string) string {
	if a == b {
		return a
	}
	as := strings.Split(strings.TrimPrefix(a, "/"), "/")
	bs := strings.Split(strings.TrimPrefix(b, "/"), "/")
	n := 0
	for n < len(as) && n < len(bs) && as[n] == bs[n] {
		n++
	}
	if n == 0 {
		return "/"
	}
	return "/" + strings.Join(as[:n], "/")
}

// addRuleKind merges one kind into the rule at prefix, creating the
// rule if absent; rules stay sorted.
func addRuleKind(p *Profile, prefix, kind string) {
	for i := range p.Rules {
		if p.Rules[i].Prefix != prefix {
			continue
		}
		for _, k := range p.Rules[i].Kinds {
			if k == kind {
				return
			}
		}
		p.Rules[i].Kinds = append(p.Rules[i].Kinds, kind)
		sort.Strings(p.Rules[i].Kinds)
		return
	}
	p.Rules = append(p.Rules, Rule{Prefix: prefix, Kinds: []string{kind}})
	sortRules(p.Rules)
}

// cloneProfile deep-copies a profile.
func cloneProfile(p *Profile) *Profile {
	out := *p
	out.SourceRuns = append([]string(nil), p.SourceRuns...)
	out.AnyPathKinds = append([]string(nil), p.AnyPathKinds...)
	out.Rules = make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		out.Rules[i] = Rule{Prefix: r.Prefix, Kinds: append([]string(nil), r.Kinds...)}
	}
	return &out
}
