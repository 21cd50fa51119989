package cachesvc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/sim"
)

func newTestService(ttl time.Duration) (*Service, *sim.Clock) {
	clock := sim.NewClock()
	return New(Options{Shards: 8, Groups: 2, LeaseTTL: ttl, Clock: clock}), clock
}

func mustAcquire(t *testing.T, s *Service, mount string, group int) Lease {
	t.Helper()
	l, err := s.Acquire(mount, group)
	if err != nil {
		t.Fatalf("acquire %s/%d: %v", mount, group, err)
	}
	return l
}

// leaseFor acquires the lease guarding key's shard group.
func leaseFor(t *testing.T, s *Service, mount string, key Key) Lease {
	t.Helper()
	return mustAcquire(t, s, mount, s.GroupOf(key))
}

func TestGetPutInvalidate(t *testing.T) {
	s, _ := newTestService(0)
	key := AttrKey("/etc/passwd")
	l := leaseFor(t, s, "m1", key)

	if _, ok := s.Get(key); ok {
		t.Fatal("empty service reported a hit")
	}
	if err := s.Put(l, key, []byte("attr")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "attr" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if err := s.Invalidate(l, key); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("entry survived Invalidate")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRingDeterministicAndCovering: the key→shard hash maps every
// key to a valid shard, identically across service instances, and
// spreads a key population over all shards.
func TestRingDeterministicAndCovering(t *testing.T) {
	a, _ := newTestService(0)
	b, _ := newTestService(0)
	seen := make(map[int]bool)
	for i := 0; i < 4096; i++ {
		key := ChunkKey(blobstore.Ref(fmt.Sprintf("ref-%04d", i)))
		sa, sb := a.ShardOf(key), b.ShardOf(key)
		if sa != sb {
			t.Fatalf("key %d: shard %d vs %d across instances", i, sa, sb)
		}
		if sa < 0 || sa >= 8 {
			t.Fatalf("key %d: shard %d out of range", i, sa)
		}
		seen[sa] = true
		if g := a.GroupOf(key); g != sa%2 {
			t.Fatalf("group of shard %d = %d", sa, g)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("4096 keys landed on only %d/8 shards", len(seen))
	}
}

// TestLRUEvictionUnderCapacity: a shard over its byte capacity evicts
// least-recently-used entries first and keeps accounting consistent.
func TestLRUEvictionUnderCapacity(t *testing.T) {
	clock := sim.NewClock()
	// One shard, one group: every key shares the LRU so the eviction
	// order is fully observable.
	s := New(Options{Shards: 1, Groups: 1, ShardCapacity: 4096, Clock: clock})
	l := mustAcquire(t, s, "m1", 0)
	val := make([]byte, 1000)
	var keys []Key
	for i := 0; i < 4; i++ {
		k := ChunkKey(blobstore.Ref(fmt.Sprintf("chunk-%d", i)))
		keys = append(keys, k)
		if err := s.Put(l, k, val); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	if err := s.Put(l, ChunkKey("chunk-overflow"), val); err != nil {
		t.Fatal(err)
	}
	if s.Contains(keys[1]) {
		t.Fatal("LRU victim survived eviction")
	}
	if !s.Contains(keys[0]) {
		t.Fatal("recently-used entry was evicted")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st.Bytes > 4096 {
		t.Fatalf("shard over capacity after eviction: %d bytes", st.Bytes)
	}
}

// TestFencingStaleEpoch: a mutation carrying a superseded epoch is
// rejected and counted, and the entry it tried to write never lands.
func TestFencingStaleEpoch(t *testing.T) {
	s, _ := newTestService(0)
	key := ChunkKey("deadbeef")
	old := leaseFor(t, s, "m1", key)
	// The mount "reconnects": a fresh acquisition mints a new epoch.
	fresh := leaseFor(t, s, "m1", key)
	if fresh.Epoch != old.Epoch+1 {
		t.Fatalf("reacquire epoch = %d, want %d", fresh.Epoch, old.Epoch+1)
	}
	if err := s.Put(old, key, []byte("stale")); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch Put = %v, want ErrFenced", err)
	}
	if s.Contains(key) {
		t.Fatal("fenced write landed in the cache")
	}
	if err := s.Put(fresh, key, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FencedWrites != 1 {
		t.Fatalf("FencedWrites = %d, want 1", st.FencedWrites)
	}
}

// TestLeaseExpiryExactlyAtDeadline: a lease is valid strictly before
// its deadline and fenced at exactly the deadline instant.
func TestLeaseExpiryExactlyAtDeadline(t *testing.T) {
	s, clock := newTestService(time.Second)
	key := ChunkKey("feed")
	l := leaseFor(t, s, "m1", key)

	clock.AdvanceTo(l.Expires - 1)
	if err := s.Put(l, key, []byte("x")); err != nil {
		t.Fatalf("Put one tick before deadline: %v", err)
	}
	clock.AdvanceTo(l.Expires) // now == deadline: expired
	if err := s.Put(l, key, []byte("y")); !errors.Is(err, ErrFenced) {
		t.Fatalf("Put at deadline = %v, want ErrFenced", err)
	}
	if st := s.Stats(); st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st.Expirations)
	}
}

// TestRenewAfterExpire: renewal cannot resurrect an expired lease; the
// holder must re-acquire and comes back with a higher epoch.
func TestRenewAfterExpire(t *testing.T) {
	s, clock := newTestService(time.Second)
	l := mustAcquire(t, s, "m1", 0)

	// An in-deadline renew extends the lease and keeps the epoch.
	clock.Advance(500 * time.Millisecond)
	renewed, err := s.Renew(l)
	if err != nil {
		t.Fatal(err)
	}
	if renewed.Epoch != l.Epoch || renewed.Expires <= l.Expires {
		t.Fatalf("renew = %+v from %+v", renewed, l)
	}

	clock.AdvanceTo(renewed.Expires)
	if _, err := s.Renew(renewed); !errors.Is(err, ErrExpired) {
		t.Fatalf("renew-after-expire = %v, want ErrExpired", err)
	}
	// Only Acquire recovers, with a fresh epoch.
	again := mustAcquire(t, s, "m1", 0)
	if again.Epoch <= renewed.Epoch {
		t.Fatalf("reacquired epoch %d not above expired epoch %d", again.Epoch, renewed.Epoch)
	}
}

// TestDoubleRelease: the second release of the same lease fails with
// ErrNotHeld, as does renewing it.
func TestDoubleRelease(t *testing.T) {
	s, _ := newTestService(0)
	l := mustAcquire(t, s, "m1", 1)
	if err := s.Release(l); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(l); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release = %v, want ErrNotHeld", err)
	}
	if _, err := s.Renew(l); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("renew after release = %v, want ErrNotHeld", err)
	}
	if st := s.Stats(); st.LeasesActive != 0 {
		t.Fatalf("LeasesActive = %d after release", st.LeasesActive)
	}
}

// TestWrongGroupRejected: a lease only admits keys in its own shard
// group, and out-of-range groups cannot be acquired.
func TestWrongGroupRejected(t *testing.T) {
	s, _ := newTestService(0)
	key := ChunkKey("cafe")
	other := (s.GroupOf(key) + 1) % s.NumGroups()
	l := mustAcquire(t, s, "m1", other)
	if err := s.Put(l, key, []byte("x")); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("cross-group Put = %v, want ErrWrongGroup", err)
	}
	if _, err := s.Acquire("m1", s.NumGroups()); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("out-of-range Acquire = %v, want ErrWrongGroup", err)
	}
}

// TestSeedAndReset: administrative seeds need no lease; Reset drops
// entries but keeps epochs so fencing survives a cache flush.
func TestSeedAndReset(t *testing.T) {
	s, _ := newTestService(0)
	key := ChunkKey("0123")
	old := leaseFor(t, s, "m1", key)
	fresh := leaseFor(t, s, "m1", key) // supersedes old

	s.Seed(key, []byte("chunk"))
	if !s.Contains(key) {
		t.Fatal("seeded entry missing")
	}
	s.Reset()
	if s.Contains(key) {
		t.Fatal("entry survived Reset")
	}
	if err := s.Put(old, key, []byte("stale")); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale epoch admitted after Reset: %v", err)
	}
	if err := s.Put(fresh, key, []byte("good")); err != nil {
		t.Fatalf("current epoch rejected after Reset: %v", err)
	}
}

// TestHitRatioZeroTraffic mirrors the DedupRatio guard: no lookups, no
// NaN.
func TestHitRatioZeroTraffic(t *testing.T) {
	s, _ := newTestService(0)
	if r := s.Stats().HitRatio(); r != 0 {
		t.Fatalf("idle HitRatio = %v", r)
	}
}
