package cachesvc

import (
	"runtime/debug"
	"testing"
)

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

// TestPutSharesOneCopy: a write to a shard on two nodes stores one copy
// of the caller's bytes, which both nodes' entries share, and costs the
// host nothing — the key is built of no string, the owners are read from
// the placement table, the LRU links live in the entry, the copy is cut
// from the service's runs and the entries come from the stores' free
// lists, which the warm-up's invalidations filled. The copy's capacity is
// its length, so an append on it cannot reach its neighbour in the run.
// A hit allocates nothing. Asserts on counts are off under -race.
func TestPutSharesOneCopy(t *testing.T) {
	const runs = 200
	svc := New(Options{Nodes: 2, Replicas: 1})
	leases := make([]Lease, svc.NumGroups())
	for g := range leases {
		var err error
		if leases[g], err = svc.Acquire("m", g); err != nil {
			t.Fatal(err)
		}
	}
	keys := testKeys("shared", runs+1)
	info := svc.Placement()
	val := []byte("chunk bytes")
	next := 0
	put := func() {
		k := keys[next%len(keys)]
		next++
		copies, err := svc.NodePut(info.Owners[svc.ShardOf(k)][0], info.Version, leases[svc.GroupOf(k)], k, val)
		if err != nil || copies != 2 {
			t.Fatalf("NodePut of %v: %d copies, %v", k, copies, err)
		}
	}
	// A first pass grows every store's map and blocks, and the
	// invalidations leave the map grown and the entries on free lists.
	for range keys {
		put()
	}
	for _, k := range keys {
		if err := svc.Invalidate(leases[svc.GroupOf(k)], k); err != nil {
			t.Fatal(err)
		}
	}
	puts := testing.AllocsPerRun(runs, put)

	k := keys[0]
	sh := svc.ShardOf(k)
	a, b := svc.nodes[0].stores[sh].entries[k].val, svc.nodes[1].stores[sh].entries[k].val
	if &a[0] != &b[0] || &a[0] == &val[0] {
		t.Errorf("the two copies share storage %v and the caller's %v; want shared with each other only",
			&a[0] == &b[0], &a[0] == &val[0])
	}
	if cap(a) != len(a) {
		t.Errorf("the stored copy has cap %d, len %d: an append reaches its neighbour", cap(a), len(a))
	}
	val[0] ^= 0xff
	if got, ok := svc.Get(k); !ok || string(got) != "chunk bytes" {
		t.Errorf("after the caller reused its buffer Get = %q, %v", got, ok)
	}
	hit := testing.AllocsPerRun(runs, func() {
		if _, ok := svc.Get(k); !ok {
			t.Fatal("miss")
		}
	})
	t.Logf("NodePut on two nodes: %.0f heap objects; Get hit: %.0f", puts, hit)
	if raceBuild() {
		return
	}
	if puts != 0 {
		t.Errorf("NodePut on two nodes costs %.0f heap objects, want 0", puts)
	}
	if hit != 0 {
		t.Errorf("Get hit costs %.0f heap objects, want 0", hit)
	}
}
