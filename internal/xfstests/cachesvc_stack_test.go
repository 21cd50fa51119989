package xfstests

import (
	"testing"

	"cntr/internal/cachesvc"
	"cntr/internal/stack"
)

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
	requireFailures(t, sum, "replicated tier", paperFailures...)

	// Kill a node mid-life, then re-run the whole suite over the
	// re-replicated tier from a second mount identity.
	if err := svc.KillNode(0); err != nil {
		t.Fatal(err)
	}

	c2 := stack.NewCntr(stack.Config{CacheService: svc, CacheMountID: "xfs-m1"})
	sum2, _ := Run(c2.Top)
	c2.Close()
	requireFailures(t, sum2, "replicated tier post-kill", paperFailures...)

	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if lost := svc.Stats().LostShards; lost != 0 {
		t.Fatalf("the kill lost %d shards", lost)
	}
}
