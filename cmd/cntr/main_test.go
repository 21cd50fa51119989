package main

import "testing"

// TestDemoHostPidOrder: every demo host gives pid 2 to demo's process and
// pid 3 to the tools container's, so an attached session's /proc/<pid>
// entries name the same processes from run to run.
func TestDemoHostPidOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		h := demoHost()
		for name, want := range map[string]int{"demo": 2, "tools": 3} {
			c, err := h.Runtime.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if c.MainPID != want {
				t.Fatalf("build %d: %s's process is pid %d, want %d", i, name, c.MainPID, want)
			}
		}
	}
}
