package xfstests

import (
	"testing"

	"cntr/internal/cachesvc"
	"cntr/internal/stack"
)

// requirePaperSplit asserts the canonical CntrFS result: 90 of 94
// generic tests pass and the four documented failures are exactly the
// paper's four.
func requirePaperSplit(t *testing.T, sum Summary, label string) {
	t.Helper()
	if sum.Passed != 90 || sum.Failed != 4 {
		for _, r := range sum.Failures {
			t.Errorf("%s: generic/%03d %s: %s", label, r.Num, r.Name, r.Reason)
		}
		t.Fatalf("%s: %d passed / %d failed, want 90/4", label, sum.Passed, sum.Failed)
	}
	wantFail := map[int]bool{375: true, 228: true, 391: true, 426: true}
	for _, r := range sum.Failures {
		if !wantFail[r.Num] {
			t.Errorf("%s: unexpected failure generic/%03d %s: %s", label, r.Num, r.Name, r.Reason)
		}
		delete(wantFail, r.Num)
	}
	for num := range wantFail {
		t.Errorf("%s: expected failure generic/%03d did not fail", label, num)
	}
}

// TestCntrStackOnReplicatedTier re-verifies POSIX semantics above the
// replicated cache tier: a Cntr stack attached to a 3-node,
// replica-per-shard service must reproduce the paper's exact 90/94
// split — replication, placement routing and replica fan-out may never
// surface in filesystem behaviour. The suite then runs again on a
// second mount after node 0 is killed and its shards re-replicated, so
// the POSIX surface is also pinned across a topology change, and the
// tier's replica-agreement invariant is checked at the end.
func TestCntrStackOnReplicatedTier(t *testing.T) {
	svc := cachesvc.New(cachesvc.Options{Nodes: 3, Replicas: 1})

	c := stack.NewCntr(stack.Config{CacheService: svc, CacheMountID: "xfs-m0"})
	sum, _ := Run(c.Top)
	c.Close()
	requirePaperSplit(t, sum, "replicated tier")

	// Kill a node mid-life, then re-run the whole suite over the
	// re-replicated tier from a second mount identity.
	if err := svc.KillNode(0); err != nil {
		t.Fatal(err)
	}

	c2 := stack.NewCntr(stack.Config{CacheService: svc, CacheMountID: "xfs-m1"})
	sum2, _ := Run(c2.Top)
	c2.Close()
	requirePaperSplit(t, sum2, "replicated tier post-kill")

	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if lost := svc.Stats().LostShards; lost != 0 {
		t.Fatalf("the kill lost %d shards", lost)
	}
}
