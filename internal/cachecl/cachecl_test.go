package cachecl

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/sim"
)

type env struct {
	svc      *cachesvc.Service
	svcClock *sim.Clock
	clock    *sim.Clock
	model    *sim.CostModel
	cl       *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	svcClock := sim.NewClock()
	svc := cachesvc.New(cachesvc.Options{
		Shards: 8, Groups: 2, LeaseTTL: time.Second, Clock: svcClock,
	})
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	cl := New(svc, "m1", clock, model)
	if err := cl.Attach(); err != nil {
		t.Fatal(err)
	}
	return &env{svc: svc, svcClock: svcClock, clock: clock, model: model, cl: cl}
}

// TestNetworkCharging pins what each tier call costs the mount's clock.
// A chunk lookup through Store.Get is one of the origin disk's pipelined
// window: it pays NetRTT over the disk's queue depth, plus the payload
// on a hit and the origin's own (equally amortized) read on a miss. With
// no origin, or at depth 1, that is a blocking round trip. Everything
// else is sent one at a time and pays a full NetRTT at every depth: the
// attach, attr lookups and publishes, the charged write-through with its
// replica fan-out, and the refresh a stale routing table forces.
func TestNetworkCharging(t *testing.T) {
	m := sim.DefaultCostModel()
	for _, row := range []struct {
		name      string
		depth     int // 0: no origin disk
		hit, miss time.Duration
	}{
		{"no origin", 0, m.NetCost(4096), m.NetRTT},
		{"depth 1", 1, m.NetCost(4096), m.NetRTT + m.DiskCost(4096)},
		{"depth 32", 32, m.NetRTT/32 + 4*m.NetPerKB, m.NetRTT/32 + m.DiskSeek/32 + 4*m.DiskPerKB},
	} {
		t.Run(row.name, func(t *testing.T) {
			svc := cachesvc.New(cachesvc.Options{
				Shards: 8, Groups: 2, LeaseTTL: time.Second, Nodes: 2, Replicas: 1,
			})
			clock := sim.NewClock()
			cl := New(svc, "m1", clock, m)
			cas := blobstore.NewCAS(blobstore.CASOptions{})
			var origin *sim.Disk
			if row.depth > 0 {
				origin = sim.NewDisk(clock, m)
				origin.SetQueueDepth(row.depth)
			}
			st := WrapStore(cas, cl, StoreOptions{Origin: origin})
			hot, err := cas.Put(make([]byte, 4096))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := cas.Put(bytes.Repeat([]byte{'c'}, 4096))
			if err != nil {
				t.Fatal(err)
			}
			attr := []byte("attr-bytes")
			getAttr := func(want bool) func() error {
				return func() error {
					if _, ok := cl.GetAttr("/a"); ok != want {
						return fmt.Errorf("GetAttr found = %v", ok)
					}
					return nil
				}
			}
			getChunk := func(ref blobstore.Ref) func() error {
				return func() error {
					data, err := st.Get(ref)
					if err == nil && len(data) != 4096 {
						err = fmt.Errorf("Get returned %d bytes", len(data))
					}
					return err
				}
			}
			for _, step := range []struct {
				call string
				want time.Duration
				fn   func() error
			}{
				{"Attach", m.NetRTT, cl.Attach},
				{"PutChunk on two copies", 2 * m.NetCost(4096), func() error { return cl.PutChunk(hot, make([]byte, 4096)) }},
				{"Store.Get hit", row.hit, getChunk(hot)},
				{"Store.Get miss", row.miss, getChunk(cold)},
				{"GetAttr miss", m.NetRTT, getAttr(false)},
				{"PutAttr on two copies", 2 * m.NetCost(len(attr)), func() error { return cl.PutAttr("/a", attr) }},
				{"GetAttr hit", m.NetCost(len(attr)), getAttr(true)},
				{"KillNode", 0, func() error { return svc.KillNode(1) }},
				{"Store.Get hit after a forced refresh", m.NetRTT + row.hit, getChunk(hot)},
			} {
				before := clock.Now()
				if err := step.fn(); err != nil {
					t.Fatalf("%s: %v", step.call, err)
				}
				if got := clock.Now() - before; got != step.want {
					t.Errorf("%s cost %v, want %v", step.call, got, step.want)
				}
			}
			if s := cl.Stats(); s.Hits != 3 || s.Misses != 2 || s.Moves != 1 || s.NetBytes != 3*4096+2*int64(len(attr)) {
				t.Errorf("stats = %+v", s)
			}
		})
	}
}

// TestPublishChunkUncharged: the write-behind publish advances no
// virtual time but still lands (and still carries the epoch).
func TestPublishChunkUncharged(t *testing.T) {
	e := newEnv(t)
	before := e.clock.Now()
	if err := e.cl.PublishChunk("wb", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if d := e.clock.Now() - before; d != 0 {
		t.Fatalf("write-behind publish charged %v", d)
	}
	if !e.svc.Contains(cachesvc.ChunkKey("wb")) {
		t.Fatal("write-behind publish did not land")
	}
}

// TestFencedPublishDroppedNotReplayed: once the service fences a group,
// the client drops the write, loses the lease, and keeps failing until
// Reattach — after which the dropped write is NOT replayed.
func TestFencedPublishDroppedNotReplayed(t *testing.T) {
	e := newEnv(t)
	e.svcClock.Advance(2 * time.Second) // expire every lease service-side

	if err := e.cl.PutChunk("stale", []byte("stale")); !errors.Is(err, cachesvc.ErrFenced) {
		t.Fatalf("expired-lease publish = %v, want ErrFenced", err)
	}
	// Second attempt fails locally (lease gone), still fenced.
	if err := e.cl.PutChunk("stale", []byte("stale")); !errors.Is(err, cachesvc.ErrFenced) {
		t.Fatalf("post-fence publish = %v, want ErrFenced", err)
	}
	if st := e.cl.Stats(); st.Fenced != 2 {
		t.Fatalf("Fenced = %d, want 2", st.Fenced)
	}
	if err := e.cl.Reattach(); err != nil {
		t.Fatal(err)
	}
	if e.svc.Contains(cachesvc.ChunkKey("stale")) {
		t.Fatal("fenced write reappeared after reattach")
	}
	if err := e.cl.PutChunk("fresh", []byte("fresh")); err != nil {
		t.Fatalf("post-reattach publish: %v", err)
	}
}

// TestPartition: a partitioned client misses locally, fails mutations,
// and charges nothing; healing restores traffic.
func TestPartition(t *testing.T) {
	e := newEnv(t)
	if err := e.cl.PutChunk("r", []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.cl.SetPartitioned(true)
	before := e.clock.Now()
	if _, ok := e.cl.get(cachesvc.ChunkKey("r"), e.model.NetRTT); ok {
		t.Fatal("partitioned client reached the service")
	}
	if err := e.cl.PutChunk("r2", []byte("y")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned put = %v", err)
	}
	if err := e.cl.Attach(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned attach = %v", err)
	}
	if d := e.clock.Now() - before; d != 0 {
		t.Fatalf("partitioned ops charged %v", d)
	}
	e.cl.SetPartitioned(false)
	if _, ok := e.cl.get(cachesvc.ChunkKey("r"), e.model.NetRTT); !ok {
		t.Fatal("healed client cannot read")
	}
	if st := e.cl.Stats(); st.Unreachable != 3 {
		t.Fatalf("Unreachable = %d, want 3", st.Unreachable)
	}
}

// TestAttrDentryRoundTrip: path-keyed attribute entries flow through
// the same charged, fenced path as chunks.
func TestAttrDentryRoundTrip(t *testing.T) {
	e := newEnv(t)
	if err := e.cl.PutAttr("/a/b", []byte("attr-bytes")); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.cl.GetAttr("/a/b"); !ok || string(v) != "attr-bytes" {
		t.Fatalf("GetAttr = %q, %v", v, ok)
	}
	if err := e.cl.InvalidateAttr("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.cl.GetAttr("/a/b"); ok {
		t.Fatal("attr survived invalidation")
	}
}

// TestRenewKeepsLeaseAlive: periodic renewal holds the same epoch past
// the original deadline.
func TestRenewKeepsLeaseAlive(t *testing.T) {
	e := newEnv(t)
	orig, _ := e.cl.Lease(0)
	e.svcClock.Advance(700 * time.Millisecond)
	if err := e.cl.RenewAll(); err != nil {
		t.Fatal(err)
	}
	e.svcClock.Advance(700 * time.Millisecond) // past the original TTL
	if err := e.cl.PutChunk("alive", []byte("x")); err != nil {
		t.Fatalf("publish under renewed lease: %v", err)
	}
	now, _ := e.cl.Lease(0)
	if now.Epoch != orig.Epoch {
		t.Fatalf("renewal changed epoch %d → %d", orig.Epoch, now.Epoch)
	}
}

// storeEnv builds a CAS-backed wrapped store with an origin disk.
func storeEnv(t *testing.T) (*env, *Store, *blobstore.CAS, *sim.Disk) {
	t.Helper()
	e := newEnv(t)
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	origin := sim.NewDisk(e.clock, e.model)
	st := WrapStore(cas, e.cl, StoreOptions{Origin: origin})
	return e, st, cas, origin
}

// TestStoreReadPopulate: the first Get pays the origin and populates
// the tier; a sibling mount's Get is served by the tier alone.
func TestStoreReadPopulate(t *testing.T) {
	e, st, cas, origin := storeEnv(t)
	data := make([]byte, 4096)
	ref, err := cas.Put(data) // seeded directly: tier must not know it yet
	if err != nil {
		t.Fatal(err)
	}
	if e.svc.Contains(cachesvc.ChunkKey(ref)) {
		t.Fatal("tier knew the chunk before any read")
	}
	if _, err := st.Get(ref); err != nil {
		t.Fatal(err)
	}
	if origin.Stats().Reads != 1 {
		t.Fatalf("origin reads = %d, want 1", origin.Stats().Reads)
	}
	if !e.svc.Contains(cachesvc.ChunkKey(ref)) {
		t.Fatal("read did not populate the tier")
	}

	// A sibling mount (own clock, own client) reads the same ref: tier
	// hit, no origin I/O, and cheaper than the origin fetch.
	clock2 := sim.NewClock()
	cl2 := New(e.svc, "m2", clock2, e.model)
	if err := cl2.Attach(); err != nil {
		t.Fatal(err)
	}
	origin2 := sim.NewDisk(clock2, e.model)
	st2 := WrapStore(cas, cl2, StoreOptions{Origin: origin2})
	before := clock2.Now()
	got, err := st2.Get(ref)
	if err != nil || len(got) != 4096 {
		t.Fatalf("sibling Get = %d bytes, %v", len(got), err)
	}
	if origin2.Stats().Reads != 0 {
		t.Fatal("sibling read went to the origin despite tier hit")
	}
	hitCost := clock2.Now() - before
	if originCost := e.model.DiskCost(4096); hitCost >= originCost {
		t.Fatalf("tier hit (%v) not cheaper than origin fetch (%v)", hitCost, originCost)
	}
}

// TestStorePutWriteThrough: Put lands in the backend and the tier; a
// fenced mount's Put still lands in the backend but not the tier.
func TestStorePutWriteThrough(t *testing.T) {
	e, st, cas, _ := storeEnv(t)
	ref, err := st.Put([]byte("shared-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cas.Get(ref); err != nil {
		t.Fatalf("backend missing written chunk: %v", err)
	}
	if !e.svc.Contains(cachesvc.ChunkKey(ref)) {
		t.Fatal("write-through publish missing from tier")
	}

	e.svcClock.Advance(2 * time.Second) // fence the mount
	ref2, err := st.Put([]byte("stale-bytes"))
	if err != nil {
		t.Fatalf("fenced mount's local write must still succeed: %v", err)
	}
	if _, err := cas.Get(ref2); err != nil {
		t.Fatalf("backend durability lost under fence: %v", err)
	}
	if e.svc.Contains(cachesvc.ChunkKey(ref2)) {
		t.Fatal("fenced publish landed in tier")
	}
}

// TestStoreDeleteInvalidates: only the last backend reference drops the
// tier entry.
func TestStoreDeleteInvalidates(t *testing.T) {
	e, st, _, _ := storeEnv(t)
	data := []byte("refcounted")
	ref, err := st.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(data); err != nil { // second reference
		t.Fatal(err)
	}
	if err := st.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if !e.svc.Contains(cachesvc.ChunkKey(ref)) {
		t.Fatal("tier entry dropped while backend references remain")
	}
	if err := st.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if e.svc.Contains(cachesvc.ChunkKey(ref)) {
		t.Fatal("tier entry survived last backend delete")
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

// TestHitAllocBudget pins what a cached chunk costs the host to look up:
// a tier hit through the client, the same hit through the wrapped store,
// and the CAS's verified Get hand back bytes the tier or the store keeps
// and build nothing on the way — no key string, no defer record, no hex
// digest. Asserts are off under -race.
func TestHitAllocBudget(t *testing.T) {
	e, st, cas, _ := storeEnv(t)
	ref, err := st.Put(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		call string
		fn   func() error
	}{
		{"Client.get chunk hit", func() error {
			if _, ok := e.cl.get(cachesvc.ChunkKey(ref), e.model.NetRTT); !ok {
				return errors.New("miss")
			}
			return nil
		}},
		{"Store.Get tier hit", func() error { _, err := st.Get(ref); return err }},
		{"CAS.Get", func() error { _, err := cas.Get(ref); return err }},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := row.fn(); err != nil {
				t.Fatalf("%s: %v", row.call, err)
			}
		})
		t.Logf("%s: %.0f heap objects", row.call, got)
		if !raceBuild() && got != 0 {
			t.Errorf("%s costs %.0f heap objects, want 0", row.call, got)
		}
	}
}
