package stack

import (
	"runtime/debug"
	"testing"

	"cntr/internal/vfs"
)

// TestTopIsTheCache: a syscall enters either stack at its page cache.
// Nothing is interposed — a caller who wants counters or a trace chains
// its own interceptor over Top.
func TestTopIsTheCache(t *testing.T) {
	n := NewNative(Config{})
	if n.Top != vfs.FS(n.Cache) {
		t.Errorf("NewNative: Top is %T, want the page cache itself", n.Top)
	}
	c := NewCntr(Config{})
	defer c.Close()
	if c.Top != vfs.FS(c.Kernel) {
		t.Errorf("NewCntr: Top is %T, want the kernel-side cache itself", c.Top)
	}
}

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestTopStatAllocBudget pins what a warm stat(2) through the baseline
// stack costs the host in heap objects, so that an always-on interceptor
// cannot return to the measured path unnoticed: the vfs.Stats chain that
// used to sit at Top cost four objects on every operation.
func TestTopStatAllocBudget(t *testing.T) {
	n := NewNative(Config{})
	cli := vfs.NewClient(n.Top, vfs.Root())
	if err := cli.WriteFile("/dir-f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	stat := func() {
		if _, err := cli.Stat("/dir-f"); err != nil {
			t.Fatal(err)
		}
	}
	stat()
	const budget = 2 // the measured count: the path split and Op.Fork
	got := testing.AllocsPerRun(200, stat)
	t.Logf("warm Stat through NewNative(...).Top: %.0f objects", got)
	if !raceBuild() && got > budget {
		t.Errorf("warm Stat costs %.0f heap objects, budget %d", got, budget)
	}
}
