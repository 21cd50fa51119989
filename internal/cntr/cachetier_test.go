package cntr

import (
	"testing"

	"cntr/internal/cachesvc"
)

// TestSessionLeaseLifecycle: an attach with a cache service holds one
// lease per shard group for the session's lifetime, and Close releases
// them all.
func TestSessionLeaseLifecycle(t *testing.T) {
	h, _, _ := testWorld(t)
	tier := cachesvc.New(cachesvc.Options{Shards: 8, Groups: 4})

	sess, err := Attach(h, Options{Container: "db", Fat: "tools", CacheService: tier})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Mount.CacheCl == nil {
		t.Fatal("session has no cache client despite CacheService option")
	}
	st := tier.Stats()
	if st.LeasesActive != int64(tier.NumGroups()) {
		t.Fatalf("LeasesActive = %d, want %d", st.LeasesActive, tier.NumGroups())
	}
	for g := 0; g < tier.NumGroups(); g++ {
		if _, ok := sess.Mount.CacheCl.Lease(g); !ok {
			t.Fatalf("no lease held for group %d", g)
		}
	}
	// The session's client can publish under its leases.
	if err := sess.Mount.CacheCl.PutAttr("/etc/my.cnf", []byte("cached-attr")); err != nil {
		t.Fatalf("publish under session lease: %v", err)
	}

	sess.Close()
	if st := tier.Stats(); st.LeasesActive != 0 {
		t.Fatalf("LeasesActive after Close = %d, want 0", st.LeasesActive)
	}

	// A second session mints fresh epochs rather than inheriting.
	sess2, err := Attach(h, Options{Container: "db", Fat: "tools", CacheService: tier})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	l2, _ := sess2.Mount.CacheCl.Lease(0)
	if l2.Epoch < 2 {
		t.Fatalf("second session's epoch = %d, want a fresh (higher) epoch", l2.Epoch)
	}
	if l2.Mount != "db" {
		t.Fatalf("lease mount identity = %q, want container ref", l2.Mount)
	}
}
