package cachesvc

import (
	"bytes"
	"fmt"
)

// copyTask is one shard handoff in progress: copy the source node's
// entries for the shard into the target node's incomplete copy. keys
// is a sorted snapshot taken at task creation; entries written after
// the snapshot reach the target anyway because mutations dual-write to
// every copy, and a snapshotted entry that was overwritten mid-copy
// loses to the newer version at install time.
type copyTask struct {
	shard  int
	target int
	source int
	keys   []Key
	next   int
}

func (s *Service) hasTaskLocked(sh, target int) bool {
	for _, t := range s.tasks {
		if t.shard == sh && t.target == target {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

// recomputeLocked re-derives placement from the current node set and
// repairs migration state: new owner copies are created (complete when
// the shard has no data to inherit), tasks whose target or source
// vanished are dropped or re-sourced, and missing tasks are created.
// Ownership flips here — before any data moves — so the placement
// version bump is what routes clients; the data follows via tasks and
// read fallthrough. Callers hold topo for write.
func (s *Service) recomputeLocked() {
	s.placeVersion++
	for sh := range s.placement {
		owners := s.ownersForLocked(sh)
		if !equalInts(owners, s.placement[sh]) {
			s.pendingHandoff[sh] = true
		}
		s.placement[sh] = owners
	}

	// Create owner copies. A copy starts complete only when the shard
	// has no complete live copy to migrate from (a genuinely fresh or
	// fully lost shard: nothing to copy, start serving empty).
	for sh, owners := range s.placement {
		src := s.completeHostLocked(sh, -1)
		for _, id := range owners {
			nd := s.nodes[id]
			if nd.stores[sh] == nil {
				nd.stores[sh] = newStore(s.opts.ShardCapacity, src == nil)
			}
		}
		if src == nil {
			// No complete copy survives anywhere: force the remaining
			// copies complete so the shard serves (as empty/partial cache)
			// instead of falling through forever. If any copy was
			// mid-migration, cached entries were genuinely lost.
			lost := false
			var on hosts
			for _, nd := range s.hostingLocked(sh, on[:0]) {
				st := nd.stores[sh]
				if !st.complete {
					if s.hasTaskLocked(sh, nd.id) {
						lost = true
					}
					st.complete = true
				}
			}
			if lost {
				s.lostShards.Add(1)
			}
		}
	}

	// Repair existing tasks against the new topology.
	keep := s.tasks[:0]
	for _, t := range s.tasks {
		tn := s.nodes[t.target]
		st := tn.stores[t.shard]
		if !tn.live || st == nil || st.complete || !containsInt(s.placement[t.shard], t.target) {
			continue // target vanished, finished, or lost ownership again
		}
		sn := s.nodes[t.source]
		if !sn.live || sn.stores[t.shard] == nil || !sn.stores[t.shard].complete {
			// Source died or was dropped: re-source from a surviving
			// complete copy with a fresh snapshot.
			src := s.completeHostLocked(t.shard, t.target)
			if src == nil {
				st.complete = true // unreachable after force-complete above
				continue
			}
			t.source = src.id
			t.keys = src.stores[t.shard].keys()
			t.next = 0
		}
		keep = append(keep, t)
	}
	s.tasks = keep

	// Create tasks for incomplete owner copies that have none.
	for sh, owners := range s.placement {
		for _, id := range owners {
			nd := s.nodes[id]
			st := nd.stores[sh]
			if st == nil || st.complete || s.hasTaskLocked(sh, id) {
				continue
			}
			src := s.completeHostLocked(sh, id)
			if src == nil {
				st.complete = true
				continue
			}
			s.tasks = append(s.tasks, &copyTask{
				shard:  sh,
				target: id,
				source: src.id,
				keys:   src.stores[sh].keys(),
			})
		}
	}
}

// settleLocked finishes handoffs whose owner copies are all complete:
// lingering non-owner copies (old owners, drained nodes) are dropped
// and the shard counts as moved. Callers hold topo for write.
func (s *Service) settleLocked() {
	for sh, owners := range s.placement {
		if len(owners) == 0 {
			continue
		}
		done := true
		for _, id := range owners {
			st := s.nodes[id].stores[sh]
			if st == nil || !st.complete {
				done = false
				break
			}
		}
		if !done {
			continue
		}
		for _, nd := range s.nodes {
			if nd.stores[sh] != nil && !containsInt(owners, nd.id) {
				delete(nd.stores, sh)
			}
		}
		if s.pendingHandoff[sh] {
			delete(s.pendingHandoff, sh)
			s.shardsMoved.Add(1)
		}
	}
}

// MigrateStep advances migration by copying up to maxEntries entries
// (<= 0 means a default batch of 256) and reports whether work
// remains. The copy is incremental: the service stays fully available
// between steps, with reads falling through and writes dual-writing.
func (s *Service) MigrateStep(maxEntries int) bool {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	s.topo.Lock()
	defer s.topo.Unlock()
	budget := maxEntries
	for budget > 0 && len(s.tasks) > 0 {
		t := s.tasks[0]
		src := s.nodes[t.source].stores[t.shard]
		dst := s.nodes[t.target].stores[t.shard]
		if src == nil || dst == nil || dst.complete {
			s.tasks = s.tasks[1:] // repaired away underneath us
			continue
		}
		for budget > 0 && t.next < len(t.keys) {
			k := t.keys[t.next]
			t.next++
			val, ver, ok := src.peek(k)
			if !ok {
				continue // deleted since the snapshot
			}
			installed, ev := dst.install(k, val, ver)
			if installed {
				s.entriesCopied.Add(1)
				s.nodes[t.target].evictions.Add(int64(ev))
			}
			budget--
		}
		if t.next >= len(t.keys) {
			dst.complete = true
			s.tasks = s.tasks[1:]
		}
	}
	s.settleLocked()
	return len(s.tasks) > 0
}

// MigrateAll runs migration to completion.
func (s *Service) MigrateAll() {
	for s.MigrateStep(1 << 16) {
	}
}

// MigrationStats reports migration progress and lifetime counters.
type MigrationStats struct {
	// PlacementVersion bumps on every topology change.
	PlacementVersion uint64
	// MigratingShards is the number of shards with at least one
	// incomplete owner copy (handoff in progress).
	MigratingShards int
	// PendingEntries is the number of snapshotted entries still to
	// copy (an upper bound: deleted entries are skipped).
	PendingEntries int
	// ShardsMoved counts completed ownership handoffs.
	ShardsMoved int64
	// EntriesCopied counts entries landed by migration copy or read
	// fallthrough pull-copy.
	EntriesCopied int64
	// FallthroughHits counts lookups served by a handoff source while
	// the addressed copy was incomplete — the no-miss-storm counter.
	FallthroughHits int64
	// LostShards counts shards whose only complete copy died
	// mid-handoff (cached entries lost, re-fetched from origin).
	LostShards int64
}

// MigrationStats returns a snapshot of migration state.
func (s *Service) MigrationStats() MigrationStats {
	s.topo.RLock()
	defer s.topo.RUnlock()
	ms := MigrationStats{
		PlacementVersion: s.placeVersion,
		ShardsMoved:      s.shardsMoved.Load(),
		EntriesCopied:    s.entriesCopied.Load(),
		FallthroughHits:  s.fallthroughHits.Load(),
		LostShards:       s.lostShards.Load(),
	}
	migrating := make(map[int]bool)
	for _, t := range s.tasks {
		migrating[t.shard] = true
		ms.PendingEntries += len(t.keys) - t.next
	}
	ms.MigratingShards = len(migrating)
	return ms
}

// Snapshot returns the service's logical contents: for each shard, the
// entries of its first complete copy (or the union of partial copies
// if none is complete). Values are copied. The dualtest harness diffs
// this against the single-node reference.
func (s *Service) Snapshot() map[Key][]byte {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make(map[Key][]byte)
	for sh := range s.placement {
		var on hosts
		var from []*node
		if nd := s.completeHostLocked(sh, -1); nd != nil {
			from = []*node{nd}
		} else {
			from = s.hostingLocked(sh, on[:0])
		}
		for _, nd := range from {
			st := nd.stores[sh]
			st.mu.Lock()
			for k, e := range st.entries {
				if _, dup := out[k]; !dup {
					out[k] = append([]byte(nil), e.val...)
				}
			}
			st.mu.Unlock()
		}
	}
	return out
}

// CheckConsistency verifies the replication invariants: every pair of
// complete copies of a shard holds identical entries, and every
// incomplete copy is a value-consistent subset of a complete copy.
// Returns nil when the invariants hold.
func (s *Service) CheckConsistency() error {
	s.topo.RLock()
	defer s.topo.RUnlock()
	dump := func(st *store) map[Key][]byte {
		st.mu.Lock()
		defer st.mu.Unlock()
		m := make(map[Key][]byte, len(st.entries))
		for k, e := range st.entries {
			m[k] = e.val
		}
		return m
	}
	for sh := range s.placement {
		var ref map[Key][]byte
		refNode := -1
		var on hosts
		hosting := s.hostingLocked(sh, on[:0])
		for _, nd := range hosting {
			st := nd.stores[sh]
			if !st.complete {
				continue
			}
			m := dump(st)
			if ref == nil {
				ref, refNode = m, nd.id
				continue
			}
			if len(m) != len(ref) {
				return fmt.Errorf("shard %d: node %d holds %d entries, node %d holds %d",
					sh, nd.id, len(m), refNode, len(ref))
			}
			for k, v := range m {
				rv, ok := ref[k]
				if !ok || !bytes.Equal(v, rv) {
					return fmt.Errorf("shard %d: key %q differs between node %d and node %d",
						sh, k, nd.id, refNode)
				}
			}
		}
		if ref == nil {
			continue
		}
		for _, nd := range hosting {
			st := nd.stores[sh]
			if st.complete {
				continue
			}
			for k, v := range dump(st) {
				rv, ok := ref[k]
				if !ok || !bytes.Equal(v, rv) {
					return fmt.Errorf("shard %d: incomplete copy on node %d diverges from node %d at key %q",
						sh, nd.id, refNode, k)
				}
			}
		}
	}
	return nil
}
