package cachesvc

import "errors"

// Sentinel errors of the lease protocol.
var (
	// ErrFenced rejects a mutation whose lease epoch is stale or
	// released. The holder must Acquire a fresh epoch before mutating
	// again; fenced writes are dropped, never replayed.
	ErrFenced = errors.New("cachesvc: write fenced (stale or released epoch)")
	// ErrNotHeld rejects a Release of a lease that is not the current
	// grant (double release, or superseded by a newer epoch).
	ErrNotHeld = errors.New("cachesvc: lease not held")
	// ErrWrongGroup rejects a mutation whose key belongs to a different
	// shard group than the lease covers — a client bug, not a fence.
	ErrWrongGroup = errors.New("cachesvc: key outside the lease's shard group")
)

// Lease is one grant: mount holds epoch over one shard group until the
// grant is released or superseded. The epoch is the fencing token every
// mutation carries.
type Lease struct {
	Mount string
	Group int
	Epoch uint64
}

type leaseID struct {
	mount string
	group int
}

// Acquire grants mount a fresh lease over the shard group. Every
// acquisition mints a new epoch — a reconnecting mount always comes
// back with a higher epoch than anything it had in flight, which is
// what fences its stale writes.
func (s *Service) Acquire(mount string, group int) (Lease, error) {
	if group < 0 || group >= s.NumGroups() {
		return Lease{}, ErrWrongGroup
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := leaseID{mount, group}
	epoch := s.epochs[id] + 1
	s.epochs[id] = epoch
	s.leases[id] = epoch
	return Lease{Mount: mount, Group: group, Epoch: epoch}, nil
}

// Release drops the lease. Releasing a lease that is not the current
// grant — already released, or superseded by a newer epoch — returns
// ErrNotHeld, so a double release is always visible to the caller.
func (s *Service) Release(l Lease) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := leaseID{l.Mount, l.Group}
	if epoch, ok := s.leases[id]; !ok || epoch != l.Epoch {
		return ErrNotHeld
	}
	delete(s.leases, id)
	return nil
}

// admit is the fence: a mutation of key under lease l is admitted only
// if l covers key's shard group and the service holds (mount, group) at
// exactly l's epoch. There is no timer: a lease ends when it is released
// or superseded, and the holder's opinion does not matter, which is what
// makes a partitioned mount safe.
//
// The fence holds per replica: one rejected mutation counts once at
// the service level (Stats.FencedWrites stays mutation-granular across
// any node count) and once on every owner of the key's shard
// (NodeStats.FencedWrites — the drop happened at every copy, applied to
// none).
func (s *Service) admit(l Lease, key Key) error {
	if s.GroupOf(key) != l.Group {
		return ErrWrongGroup
	}
	s.mu.Lock()
	epoch, ok := s.leases[leaseID{l.Mount, l.Group}]
	fenced := !ok || epoch != l.Epoch
	if fenced {
		s.fenced++
	}
	s.mu.Unlock()
	if !fenced {
		return nil
	}
	// s.mu is released before taking topo: lease state and topology are
	// independent lock domains and must never nest.
	s.topo.RLock()
	for _, id := range s.placement[s.ShardOf(key)] {
		s.nodes[id].fenced.Add(1)
	}
	s.topo.RUnlock()
	return ErrFenced
}
