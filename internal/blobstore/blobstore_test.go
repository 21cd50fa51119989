package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cntr/internal/sim"
)

// stores returns one fresh instance of every backend, keyed by name.
func stores() map[string]Store {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	return map[string]Store{
		"mem": NewMem(),
		"cas": NewCAS(CASOptions{}),
		"dir": NewDir(DirOptions{Disk: sim.NewDisk(clock, model), Clock: clock, Model: model}),
	}
}

func TestRoundtrip(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			data := []byte("the quick brown fox")
			ref, err := s.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("got %q want %q", got, data)
			}
			info, err := s.Stat(ref)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != int64(len(data)) {
				t.Fatalf("size %d want %d", info.Size, len(data))
			}
			if err := s.Delete(ref); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(ref); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after delete: %v", err)
			}
		})
	}
}

func TestMissingRef(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			for _, err := range []error{
				func() error { _, err := s.Get("nope"); return err }(),
				func() error { _, err := s.Stat("nope"); return err }(),
				s.Delete("nope"),
			} {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("want ErrNotFound, got %v", err)
				}
			}
		})
	}
}

// TestPutCopies verifies the aliasing contract: Put must not retain the
// caller's buffer.
func TestPutCopies(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			buf := []byte("original")
			ref, _ := s.Put(buf)
			buf[0] = 'X'
			got, err := s.Get(ref)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "original" {
				t.Fatalf("store aliased caller buffer: %q", got)
			}
		})
	}
}

// TestDedup checks the core content-addressing invariant on the deduping
// backends: identical content stored once, logical/physical stats apart.
func TestDedup(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	for name, s := range map[string]Store{
		"cas": NewCAS(CASOptions{}),
		"dir": NewDir(DirOptions{Disk: sim.NewDisk(clock, model)}),
	} {
		t.Run(name, func(t *testing.T) {
			data := bytes.Repeat([]byte("z"), 4096)
			r1, _ := s.Put(data)
			r2, _ := s.Put(data)
			if r1 != r2 {
				t.Fatalf("identical content got different refs %s %s", r1, r2)
			}
			st := s.Stats()
			if st.Blobs != 1 {
				t.Fatalf("blobs = %d, want 1", st.Blobs)
			}
			if st.LogicalBytes != 2*4096 || st.PhysicalBytes != 4096 {
				t.Fatalf("logical=%d physical=%d", st.LogicalBytes, st.PhysicalBytes)
			}
			if st.DedupHits != 1 {
				t.Fatalf("dedup hits = %d, want 1", st.DedupHits)
			}
			if got := st.DedupRatio(); got != 2.0 {
				t.Fatalf("dedup ratio = %v, want 2.0", got)
			}
			info, _ := s.Stat(r1)
			if info.RefCount != 2 {
				t.Fatalf("refcount = %d, want 2", info.RefCount)
			}
		})
	}
}

// TestMemNoDedup pins the Mem baseline: same bytes, two blobs.
func TestMemNoDedup(t *testing.T) {
	s := NewMem()
	data := []byte("same")
	r1, _ := s.Put(data)
	r2, _ := s.Put(data)
	if r1 == r2 {
		t.Fatal("mem store must not dedup")
	}
	if st := s.Stats(); st.Blobs != 2 || st.DedupRatio() != 1.0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestMemRefs pins Mem's refs — "m" and the put counter in hex — up to
// the widest counter.
func TestMemRefs(t *testing.T) {
	s := NewMem()
	for i := uint64(1); i <= 300; i++ {
		if ref, _ := s.Put(nil); ref != Ref("m"+strconv.FormatUint(i, 16)) {
			t.Fatalf("put %d: ref %q", i, ref)
		}
	}
	s.next = 1<<64 - 2
	if ref, _ := s.Put(nil); ref != "mffffffffffffffff" {
		t.Fatalf("widest counter: ref %q", ref)
	}
}

// TestRefCountGC is the GC invariant: a shared chunk survives deletes
// while any reference holds it and is freed by the last one.
func TestRefCountGC(t *testing.T) {
	s := NewCAS(CASOptions{})
	data := []byte("shared chunk")
	ref, _ := s.Put(data)
	s.Put(data) // second reference

	if err := s.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); err != nil {
		t.Fatalf("chunk freed while referenced: %v", err)
	}
	if st := s.Stats(); st.Blobs != 1 || st.PhysicalBytes != int64(len(data)) {
		t.Fatalf("stats after partial delete: %+v", st)
	}

	if err := s.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("last delete must free the chunk, got %v", err)
	}
	if st := s.Stats(); st.Blobs != 0 || st.PhysicalBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("stats after full delete: %+v", st)
	}
}

func TestCASVerifyCorrupt(t *testing.T) {
	s := NewCAS(CASOptions{})
	ref, _ := s.Put([]byte("precious bytes"))
	if !s.CorruptForTest(ref) {
		t.Fatal("CorruptForTest found nothing to corrupt")
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestCASHashCharge(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	s := NewCAS(CASOptions{Clock: clock, Model: model})
	before := clock.Now()
	s.Put(bytes.Repeat([]byte("h"), 64<<10))
	if clock.Now() == before {
		t.Fatal("Put of 64KB must charge hashing time")
	}
}

func TestDirDiskCharge(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	s := NewDir(DirOptions{Disk: disk, Clock: clock, Model: model})

	t0 := clock.Now()
	ref, _ := s.Put(bytes.Repeat([]byte("d"), 1<<20))
	t1 := clock.Now()
	if t1 == t0 {
		t.Fatal("new object must charge a disk write")
	}
	// A duplicate Put stores nothing and must not pay the transfer.
	s.Put(bytes.Repeat([]byte("d"), 1<<20))
	t2 := clock.Now()
	if t2-t1 >= t1-t0 {
		t.Fatalf("duplicate Put paid full write: first=%v dup=%v", t1-t0, t2-t1)
	}
	s.Get(ref)
	if clock.Now() == t2 {
		t.Fatal("Get must charge a disk read")
	}
	if !strings.HasPrefix(ObjectPath(ref), "objects/"+string(ref[:2])+"/") {
		t.Fatalf("object path %q lacks fan-out", ObjectPath(ref))
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						// Half the workers collide on shared content to
						// exercise the dedup path under race.
						data := []byte(fmt.Sprintf("worker-%d-item-%d", w%2, i))
						ref, err := s.Put(data)
						if err != nil {
							t.Error(err)
							return
						}
						got, err := s.Get(ref)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, data) {
							t.Errorf("got %q want %q", got, data)
							return
						}
						if err := s.Delete(ref); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestFaultInjector(t *testing.T) {
	inner := NewCAS(CASOptions{})
	inj := NewFaultInjector(inner,
		FaultRule{Op: FaultGet, Err: ErrCorrupt, EveryN: 3},
	)
	ref, err := inj.Put([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	var failures int
	for i := 0; i < 9; i++ {
		if _, err := inj.Get(ref); errors.Is(err, ErrCorrupt) {
			failures++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if failures != 3 {
		t.Fatalf("every-3rd rule fired %d times in 9 gets", failures)
	}
	if inj.Injected() != 3 {
		t.Fatalf("Injected() = %d", inj.Injected())
	}
	// Pass-throughs must still work.
	if _, err := inj.Stat(ref); err != nil {
		t.Fatal(err)
	}
	if err := inj.Delete(ref); err != nil {
		t.Fatal(err)
	}
}

func TestSumStable(t *testing.T) {
	if Sum([]byte("abc")) != Sum([]byte("abc")) {
		t.Fatal("Sum not deterministic")
	}
	if Sum([]byte("abc")) == Sum([]byte("abd")) {
		t.Fatal("Sum collision on different content")
	}
	if len(Sum(nil)) != 64 {
		t.Fatalf("hex sha256 must be 64 chars, got %d", len(Sum(nil)))
	}
}

// TestDedupRatioEmpty pins the empty-store convention: logical over
// physical with zero physical bytes is defined as 1.0 ("no sharing"),
// never a division by zero — on the zero Stats value, on every freshly
// constructed store type, and on a store emptied back down by deletes.
func TestDedupRatioEmpty(t *testing.T) {
	var st Stats
	if st.DedupRatio() != 1.0 {
		t.Fatalf("empty stats ratio = %v", st.DedupRatio())
	}
	for name, s := range map[string]Store{
		"mem": NewMem(),
		"dir": NewDir(DirOptions{}),
		"cas": NewCAS(CASOptions{}),
	} {
		if r := s.Stats().DedupRatio(); r != 1.0 {
			t.Fatalf("fresh %s store ratio = %v, want 1.0", name, r)
		}
	}
	cas := NewCAS(CASOptions{})
	ref, err := cas.Put([]byte("transient"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cas.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if r := cas.Stats().DedupRatio(); r != 1.0 {
		t.Fatalf("emptied CAS ratio = %v, want 1.0", r)
	}
}

// TestHashCostScales sanity-checks the sim cost hook blobstore charges.
func TestHashCostScales(t *testing.T) {
	m := sim.DefaultCostModel()
	small, big := m.HashCost(4<<10), m.HashCost(4<<20)
	if small <= 0 || big <= small {
		t.Fatalf("HashCost(4KB)=%v HashCost(4MB)=%v", small, big)
	}
	_ = time.Duration(0)
}
