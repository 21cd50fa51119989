package phoronix

import (
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// TestChaosBlobCleanBackend: over a fault-free content-addressed
// backend the suite must behave exactly as on the default store — the
// backend is a storage detail.
func TestChaosBlobCleanBackend(t *testing.T) {
	r := Run(&Suite[0], Setup{Config: stack.Config{Store: blobstore.NewCAS(blobstore.CASOptions{})}})
	if r.Err != nil {
		t.Fatalf("clean CAS backend failed the benchmark: %v", r.Err)
	}
	if r.Time <= 0 {
		t.Fatal("benchmark reported no time")
	}
}

// TestChaosBlobFaultSurfacesEIO: a store-level fault on every Get must
// abort a read-heavy benchmark with EIO — proof the backend fault path
// propagates through memfs, the page caches and FUSE to syscall level.
func TestChaosBlobFaultSurfacesEIO(t *testing.T) {
	rules := []blobstore.FaultRule{
		{Op: blobstore.FaultGet, Err: blobstore.ErrCorrupt, EveryN: 1},
	}
	var failed, fired bool
	for i := range Suite {
		r := Run(&Suite[i], Setup{StoreFaults: rules})
		if r.Injected > 0 {
			fired = true
		}
		if r.Err != nil {
			failed = true
			if vfs.ToErrno(r.Err) != vfs.EIO {
				t.Fatalf("%s: store fault surfaced as %v, want EIO", r.Name, r.Err)
			}
			break
		}
	}
	if !fired {
		t.Fatal("injector never fired across the suite")
	}
	if !failed {
		t.Fatal("every-Get corruption never surfaced as an error")
	}
}
