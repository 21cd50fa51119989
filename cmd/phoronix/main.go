// Command phoronix runs the §5.2 disk suite and prints what
// internal/phoronix/testdata/rows.golden pins.
//
//	phoronix               README's Figure 2, 3 and 4 tables
//	phoronix <mode>...     each mode's rows.golden lines (a usage error
//	                       lists the modes)
//	phoronix -trace-out f  record the suite on CntrFS, write the profile to f
//	phoronix -enforce f    replay the suite under the profile in f, report
//	                       denials and list each row's first off-profile
//	                       operations (-audit: count them, deny none)
//
// -trace-out and -enforce compose: trace, then replay (the same path
// replays the profile just written). A mode takes no flag. A usage error
// exits 2, a failed row or a denial 1.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"cntr/internal/phoronix"
	"cntr/internal/policy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on args; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phoronix", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traceOut := fs.String("trace-out", "", "trace the suite and write the generated policy profile JSON to this file")
	enforce := fs.String("enforce", "", "replay the suite under the policy profile JSON at this path and report denials")
	audit := fs.Bool("audit", false, "with -enforce: record off-profile operations without denying them")
	if fs.Parse(args) != nil {
		return 2
	}
	modes := fs.Args()
	var err error
	switch {
	case slices.ContainsFunc(modes, func(m string) bool { return !slices.Contains(phoronix.ModeNames(), m) }):
		err = fmt.Errorf("the modes are %q", phoronix.ModeNames())
	case len(modes) > 0 && fs.NFlag() > 0:
		err = errors.New("a mode takes no flag")
	case *audit && *enforce == "":
		err = errors.New("-audit requires -enforce")
	}
	if err != nil {
		fmt.Fprintln(stderr, "phoronix:", err)
		return 2
	}

	if *traceOut != "" || *enforce != "" {
		err = runPolicy(*traceOut, *enforce, *audit, stdout)
	} else {
		out := ""
		if len(modes) > 0 {
			out, err = phoronix.Lines(modes...)
		} else {
			out, err = phoronix.Figures()
		}
		if err == nil {
			fmt.Fprint(stdout, out)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "phoronix:", err)
		return 1
	}
	return 0
}

// runPolicy records and/or replays the twenty rows on CntrFS: the trace
// half first when asked for, then the replay under the profile.
func runPolicy(traceOut, enforce string, audit bool, w io.Writer) error {
	var profile *policy.Profile
	if traceOut != "" {
		col := policy.NewCollector()
		rows := phoronix.Sweep(nil, phoronix.Setup{Record: col})
		fmt.Fprint(w, "== Traced run ==\n", phoronix.FormatRows(rows))
		for _, r := range rows {
			if r.Err != nil {
				return r.Err
			}
		}
		profile = col.Profile(policy.GenOptions{})
		blob, err := profile.Marshal()
		if err == nil {
			err = os.WriteFile(traceOut, blob, 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote profile (%d rules) to %s\n", len(profile.Rules), traceOut)
		if enforce == "" {
			return nil
		}
		fmt.Fprintln(w)
	}
	if enforce != traceOut {
		blob, err := os.ReadFile(enforce)
		if err == nil {
			profile, err = policy.Load(blob)
		}
		if err != nil {
			return err
		}
	}
	mode := "enforce"
	if audit {
		mode = "audit"
	}
	fmt.Fprintf(w, "== CntrFS under policy (%s mode) ==\n", mode)
	rows := phoronix.Sweep(nil, phoronix.Setup{Enforce: profile, Audit: audit})
	fmt.Fprint(w, phoronix.FormatRows(rows))
	var denials, audited int64
	var failed error
	for _, r := range rows {
		denials += r.Denials
		audited += r.Audited
		failed = cmp.Or(failed, r.Err)
	}
	fmt.Fprintf(w, "total denials=%d audited=%d\n", denials, audited)
	if denials+audited > 0 {
		// What a profile replayed under -audit would deny, and why.
		const perRow = 5
		fmt.Fprintf(w, "off-profile operations, the first %d of each row:\n", perRow)
		for _, r := range rows {
			for i, v := range r.Violations {
				if i == perRow {
					fmt.Fprintf(w, "  %-28s and %d more\n", r.Name, r.Denials+r.Audited-perRow)
					break
				}
				verdict := "audited"
				if v.Denied {
					verdict = "denied"
				}
				fmt.Fprintf(w, "  %-28s %-10v %-32s %s, %s\n", r.Name, v.Kind, v.Path, v.Reason, verdict)
			}
		}
	}
	if denials != 0 {
		return fmt.Errorf("%d denials", denials)
	}
	return failed
}
