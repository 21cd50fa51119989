package main

import (
	"strings"
	"testing"

	"cntr/internal/phoronix"
)

// TestPlan is the flag → mode/Setup/error mapping: every combination
// either fills the fields of the one Setup or is refused — none is
// dropped without a word (as -chaos-blob used to drop -chaos, -enforce,
// -audit and -trace-out, and -merge-replay and -cachesvc every other mode
// flag). No sweep runs here.
func TestPlan(t *testing.T) {
	const latency, errnos, blob = 3, 5, 2 // rule counts of the three Chaos*Profile sets
	fleet := func(edit func(*phoronix.MultiMountOptions)) phoronix.MultiMountOptions {
		f := fleetDefaults
		edit(&f)
		return f
	}
	for _, tc := range []struct {
		name string
		o    options
		mode string
		// faults, storeFaults, audit: the replay Setup's shape.
		faults, storeFaults int
		audit               bool
		err                 string // substring; "" means accepted
	}{
		{name: "no flag", mode: "figures"},
		{name: "-trace-out", o: options{traceOut: "p"}, mode: "suite"},
		{name: "-enforce", o: options{enforce: "p"}, mode: "suite"},
		{name: "-enforce -audit", o: options{enforce: "p", audit: true}, mode: "suite", audit: true},
		{name: "-trace-out -enforce", o: options{traceOut: "p", enforce: "p"}, mode: "suite"},
		{name: "-chaos", o: options{chaos: true}, mode: "suite", faults: latency},
		{name: "-chaos -enforce", o: options{chaos: true, enforce: "p"}, mode: "suite", faults: errnos},
		{name: "-chaos -enforce -audit", o: options{chaos: true, enforce: "p", audit: true}, mode: "suite", faults: errnos, audit: true},
		{name: "-chaos-blob", o: options{chaosBlob: true}, mode: "suite", storeFaults: blob},
		{name: "-merge-replay", o: options{mergeReplay: true}, mode: "merge-replay"},
		{name: "-cachesvc", o: options{cacheSvc: true}, mode: "cachesvc"},
		{name: "-cachesvc sized", o: options{cacheSvc: true, fleet: fleet(func(f *phoronix.MultiMountOptions) {
			f.Mounts, f.Nodes, f.Replicas, f.KillNodeMid = 8, 3, 1, true
		})}, mode: "cachesvc"},

		// Used to run with the second flag ignored; now they compose.
		{name: "-chaos-blob -enforce", o: options{chaosBlob: true, enforce: "p"}, mode: "suite", storeFaults: blob},
		{name: "-chaos-blob -enforce -audit", o: options{chaosBlob: true, enforce: "p", audit: true}, mode: "suite", storeFaults: blob, audit: true},
		{name: "-chaos-blob -chaos", o: options{chaosBlob: true, chaos: true}, mode: "suite", faults: latency, storeFaults: blob},
		{name: "-chaos-blob -chaos -enforce", o: options{chaosBlob: true, chaos: true, enforce: "p"}, mode: "suite", faults: errnos, storeFaults: blob},

		// Refused before, refused still.
		{name: "-audit", o: options{audit: true}, err: "-audit requires -enforce"},
		{name: "-chaos -trace-out", o: options{chaos: true, traceOut: "p"}, err: "taints the profile"},
		{name: "-cachesvc -cache-kill-node, one node", o: options{cacheSvc: true, fleet: fleet(func(f *phoronix.MultiMountOptions) {
			f.KillNodeMid = true
		})}, err: "need -cache-nodes >= 2"},

		// Used to run with a flag ignored; mean nothing, so refused.
		{name: "-chaos-blob -trace-out", o: options{chaosBlob: true, traceOut: "p"}, err: "taints the profile"},
		{name: "-chaos-blob -audit", o: options{chaosBlob: true, audit: true}, err: "-audit requires -enforce"},
		{name: "-merge-replay -chaos", o: options{mergeReplay: true, chaos: true}, err: "-merge-replay runs alone"},
		{name: "-merge-replay -chaos-blob", o: options{mergeReplay: true, chaosBlob: true}, err: "-merge-replay runs alone"},
		{name: "-merge-replay -enforce", o: options{mergeReplay: true, enforce: "p"}, err: "-merge-replay runs alone"},
		{name: "-merge-replay -trace-out", o: options{mergeReplay: true, traceOut: "p"}, err: "-merge-replay runs alone"},
		{name: "-merge-replay -audit", o: options{mergeReplay: true, audit: true}, err: "-merge-replay runs alone"},
		{name: "-cachesvc -merge-replay", o: options{cacheSvc: true, mergeReplay: true}, err: "-cachesvc runs alone"},
		{name: "-cachesvc -chaos", o: options{cacheSvc: true, chaos: true}, err: "-cachesvc runs alone"},
		{name: "-cachesvc -chaos-blob", o: options{cacheSvc: true, chaosBlob: true}, err: "-cachesvc runs alone"},
		{name: "-cachesvc -enforce", o: options{cacheSvc: true, enforce: "p"}, err: "-cachesvc runs alone"},
		{name: "-cachesvc -trace-out", o: options{cacheSvc: true, traceOut: "p"}, err: "-cachesvc runs alone"},
		{name: "-mounts", o: options{fleet: fleet(func(f *phoronix.MultiMountOptions) { f.Mounts = 8 })}, err: "require -cachesvc"},
		{name: "-chaos -cache-nodes", o: options{chaos: true, fleet: fleet(func(f *phoronix.MultiMountOptions) { f.Nodes = 2 })}, err: "require -cachesvc"},
		{name: "-merge-replay -cache-drain-node", o: options{mergeReplay: true, fleet: fleet(func(f *phoronix.MultiMountOptions) { f.DrainNodeMid = true })}, err: "require -cachesvc"},
	} {
		if tc.o.fleet == (phoronix.MultiMountOptions{}) {
			tc.o.fleet = fleetDefaults // as flag.Parse leaves it
		}
		mode, replay, err := tc.o.plan()
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one saying %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
			continue
		}
		if mode != tc.mode {
			t.Errorf("%s: mode %q, want %q", tc.name, mode, tc.mode)
		}
		if len(replay.Faults) != tc.faults || len(replay.StoreFaults) != tc.storeFaults || replay.Audit != tc.audit {
			t.Errorf("%s: replay under %d faults, %d store faults, audit=%v; want %d, %d, %v",
				tc.name, len(replay.Faults), len(replay.StoreFaults), replay.Audit, tc.faults, tc.storeFaults, tc.audit)
		}
		// What only the run can fill in stays empty here.
		if replay.Enforce != nil || replay.Record != nil || replay.Seed != 0 {
			t.Errorf("%s: plan filled in run-time fields: %+v", tc.name, replay)
		}
	}
	if n := len(phoronix.ChaosProfile()); n != latency {
		t.Fatalf("ChaosProfile has %d rules, the table assumes %d", n, latency)
	}
	if n := len(phoronix.ChaosErrnoProfile()); n != errnos {
		t.Fatalf("ChaosErrnoProfile has %d rules, the table assumes %d", n, errnos)
	}
	if n := len(phoronix.ChaosBlobProfile()); n != blob {
		t.Fatalf("ChaosBlobProfile has %d rules, the table assumes %d", n, blob)
	}
}
