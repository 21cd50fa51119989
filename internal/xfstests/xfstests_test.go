package xfstests

import (
	"slices"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

func TestSuiteHas94GenericTests(t *testing.T) {
	all := All()
	if len(all) != 94 {
		t.Fatalf("suite has %d tests, want 94 (the paper's generic group)", len(all))
	}
	seen := map[int]bool{}
	groups := map[string]bool{}
	for _, tc := range all {
		if seen[tc.Num] {
			t.Fatalf("duplicate test number %d", tc.Num)
		}
		seen[tc.Num] = true
		groups[tc.Group] = true
	}
	for _, g := range []string{"auto", "quick", "aio", "prealloc", "ioctl", "dangerous"} {
		if !groups[g] {
			t.Fatalf("missing group %q", g)
		}
	}
	for _, num := range paperFailures {
		if !seen[num] {
			t.Fatalf("canonical test #%d missing", num)
		}
	}
}

// paperFailures are the four generic tests CntrFS fails in §5.1.
var paperFailures = []int{228, 375, 391, 426}

// requireFailures asserts that exactly the tests want (in ascending
// order) failed and every other test passed.
func requireFailures(t *testing.T, sum Summary, label string, want ...int) {
	t.Helper()
	var got []int
	for _, r := range sum.Failures {
		got = append(got, r.Num)
	}
	if slices.Equal(got, want) && sum.Passed == sum.Total-len(want) {
		return
	}
	for _, r := range sum.Failures {
		t.Errorf("%s: generic/%03d %s: %s", label, r.Num, r.Name, r.Reason)
	}
	t.Fatalf("%s: %d/%d passed, failures %v, want exactly %v", label, sum.Passed, sum.Total, got, want)
}

func TestNativeStackPassesEverything(t *testing.T) {
	n := stack.NewNative(stack.Config{})
	sum, _ := Run(n.Top)
	requireFailures(t, sum, "native")
}

// TestCntrStackReproducesPaper is the §5.1 headline: 90 of 94 generic
// tests pass over CntrFS-on-tmpfs, and the four failures are exactly the
// ones the paper documents, for the documented reasons.
func TestCntrStackReproducesPaper(t *testing.T) {
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	sum, _ := Run(c.Top)
	requireFailures(t, sum, "cntr", paperFailures...)
}

// TestUnionLanes runs the suite on a container's root filesystem: a bare
// unionfs, with no lower layer and with one, passes everything tmpfs does
// but #426 (a union inode is made by a lookup and dropped by a forget),
// and the attach shape, a CntrFS mount over a union, fails exactly the
// paper's four.
func TestUnionLanes(t *testing.T) {
	image := func() vfs.FS {
		lower := memfs.New(memfs.Options{})
		cli := vfs.NewClient(lower, vfs.Root())
		if err := cli.MkdirAll("/etc", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := cli.WriteFile("/etc/hostname", []byte("app\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return lower
	}
	for _, lane := range []struct {
		name  string
		mount bool
		lower bool
		want  []int
	}{
		{name: "unionfs, no lower", want: []int{426}},
		{name: "unionfs, one lower", lower: true, want: []int{426}},
		{name: "mount over unionfs", lower: true, mount: true, want: paperFailures},
	} {
		t.Run(lane.name, func(t *testing.T) {
			var lowers []vfs.FS
			if lane.lower {
				lowers = append(lowers, image())
			}
			var top vfs.FS = unionfs.NewWith(unionfs.Options{}, lowers...)
			if lane.mount {
				m := stack.NewMount(top, sim.NewClock(), sim.DefaultCostModel(), stack.Config{})
				defer m.Close()
				top = m.Kernel
			}
			sum, _ := Run(top)
			requireFailures(t, sum, lane.name, lane.want...)
		})
	}
}
