// Command policyctl manipulates recorded policy profiles offline — the
// lifecycle tooling between "record a run" and "enforce a profile":
//
//	policyctl merge -o merged.json run-a.json run-b.json
//	policyctl diff old.json new.json
//	policyctl tighten -o tight.json merged.json
//	policyctl show merged.json
//
// merge unions any number of recorded profiles into one (rule union,
// ceiling max plus headroom) with the provenance header updated; diff
// prints the structured delta between two profiles (exit 1 when they
// differ, like diff(1)); tighten converts any-path kinds into
// path-anchored rules where the rule evidence shares a prefix; show
// prints a human summary of one profile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cntr/internal/policy"
)

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: policyctl <command> [flags] <profile.json>...

commands:
  merge   [-headroom 1.25] [-o out.json] a.json b.json...
  diff    [-json] old.json new.json
  tighten [-o out.json] in.json
  show    profile.json`)
	return 2
}

func loadProfile(path string) (*policy.Profile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := policy.Load(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// writeProfile marshals p to path, or to stdout when path is "-" or
// empty.
func writeProfile(p *policy.Profile, path string, stdout io.Writer) error {
	blob, err := p.Marshal()
	if err != nil {
		return err
	}
	if path == "" || path == "-" {
		_, err = stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policyctl merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	headroom := fs.Float64("headroom", 0, "ceiling headroom factor (0 = default 1.25)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "policyctl merge: need at least one profile")
		return 2
	}
	profiles := make([]*policy.Profile, 0, fs.NArg())
	for _, path := range fs.Args() {
		p, err := loadProfile(path)
		if err != nil {
			fmt.Fprintln(stderr, "policyctl merge:", err)
			return 2
		}
		profiles = append(profiles, p)
	}
	merged := policy.Merge(policy.MergeOptions{Headroom: *headroom}, profiles...)
	if err := writeProfile(merged, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "policyctl merge:", err)
		return 2
	}
	return 0
}

// formatDiff renders the structured delta in patch style.
func formatDiff(d *policy.DiffReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "generation %d -> %d: %s\n", d.OldGeneration, d.NewGeneration, d.Summary())
	for _, r := range d.RulesAdded {
		fmt.Fprintf(&b, "+ %s %v\n", r.Prefix, r.Kinds)
	}
	for _, r := range d.RulesRemoved {
		fmt.Fprintf(&b, "- %s %v\n", r.Prefix, r.Kinds)
	}
	for _, r := range d.RulesWidened {
		fmt.Fprintf(&b, "~ %s +%v\n", r.Prefix, r.Kinds)
	}
	for _, r := range d.RulesNarrowed {
		fmt.Fprintf(&b, "~ %s -%v\n", r.Prefix, r.Kinds)
	}
	for _, k := range d.AnyPathAdded {
		fmt.Fprintf(&b, "+ any-path %s\n", k)
	}
	for _, k := range d.AnyPathRemoved {
		fmt.Fprintf(&b, "- any-path %s\n", k)
	}
	for _, c := range d.Ceilings {
		fmt.Fprintf(&b, "~ %s %d -> %d\n", c.Name, c.Old, c.New)
	}
	return b.String()
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policyctl diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the structured report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: policyctl diff [-json] old.json new.json")
		return 2
	}
	oldP, err := loadProfile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "policyctl diff:", err)
		return 2
	}
	newP, err := loadProfile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "policyctl diff:", err)
		return 2
	}
	d := policy.Diff(oldP, newP)
	if *asJSON {
		blob, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "policyctl diff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", blob)
	} else {
		fmt.Fprint(stdout, formatDiff(d))
	}
	if d.Empty() {
		return 0
	}
	return 1
}

func runTighten(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policyctl tighten", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: policyctl tighten [-o out.json] in.json")
		return 2
	}
	p, err := loadProfile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "policyctl tighten:", err)
		return 2
	}
	tightened, rep := policy.Tighten(p)
	for _, r := range rep.Anchored {
		fmt.Fprintf(stderr, "anchored %v at %s\n", r.Kinds, r.Prefix)
	}
	for _, k := range rep.Kept {
		fmt.Fprintf(stderr, "kept any-path %s (no shared prefix)\n", k)
	}
	if err := writeProfile(tightened, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "policyctl tighten:", err)
		return 2
	}
	return 0
}

func runShow(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policyctl show", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: policyctl show profile.json")
		return 2
	}
	p, err := loadProfile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "policyctl show:", err)
		return 2
	}
	fmt.Fprintf(stdout, "version %d  generation %d  runs %d\n", p.Version, p.Generation, p.Runs)
	if len(p.SourceRuns) > 0 {
		fmt.Fprintf(stdout, "sources: %s\n", strings.Join(p.SourceRuns, ", "))
	}
	if p.WindowOps > 0 {
		fmt.Fprintf(stdout, "window: %d ops, read %d B, write %d B\n",
			p.WindowOps, p.ReadBytesPerWindow, p.WriteBytesPerWindow)
	}
	if len(p.AnyPathKinds) > 0 {
		fmt.Fprintf(stdout, "any-path: %s\n", strings.Join(p.AnyPathKinds, ", "))
	}
	rules := append([]policy.Rule(nil), p.Rules...)
	sort.Slice(rules, func(i, j int) bool { return rules[i].Prefix < rules[j].Prefix })
	for _, r := range rules {
		fmt.Fprintf(stdout, "  %-30s %s\n", r.Prefix, strings.Join(r.Kinds, ","))
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "merge":
		return runMerge(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "tighten":
		return runTighten(args[1:], stdout, stderr)
	case "show":
		return runShow(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "policyctl: unknown command %q\n", args[0])
		return usage(stderr)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
