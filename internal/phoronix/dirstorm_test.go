package phoronix

import "testing"

// TestDirStormWorkload: listing and resolving a million-entry (scaled)
// directory must complete on both stacks and must cost CntrFS more than
// native — directory iteration is pure metadata round trips.
func TestDirStormWorkload(t *testing.T) {
	r := pass(t, shared().dirStorm)
	if r.Work < 3*dirStormEntries {
		t.Fatalf("dir-storm performed %d ops, want at least the three readdir passes (%d)",
			r.Work, 3*dirStormEntries)
	}
	if r.Overhead <= 1.0 {
		t.Fatalf("dir-storm overhead = %.2fx; directory churn should cost CntrFS more than native", r.Overhead)
	}
}

// TestDirStormNotInSuite: Figure 2 is the paper's fixed twenty rows.
func TestDirStormNotInSuite(t *testing.T) {
	for i := range Suite {
		if Suite[i].Name == DirStorm.Name {
			t.Fatalf("DirStorm leaked into the Figure 2 suite at index %d", i)
		}
	}
}

// TestDirStormChaosEnforced replays the storm under latency chaos with
// its own recorded profile enforced: injected faults must not register
// as policy denials even at million-entry directory scale.
func TestDirStormChaosEnforced(t *testing.T) {
	prof := recordedProfile(t, &DirStorm)
	r := Run(&DirStorm, Setup{Enforce: prof, Faults: ChaosProfile()})
	if r.Err != nil {
		t.Fatalf("dir-storm under chaos+enforce: %v", r.Err)
	}
	if r.Denials != 0 {
		t.Fatalf("%d denials under the storm's own profile", r.Denials)
	}
}
