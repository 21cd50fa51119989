package cachesvc

import (
	"errors"
	"time"
)

// defaultLeaseTTL is the lease lifetime when Options.LeaseTTL is zero.
const defaultLeaseTTL = 5 * time.Second

// Sentinel errors of the lease protocol.
var (
	// ErrFenced rejects a mutation whose lease epoch is stale, expired
	// or released. The holder must Acquire a fresh epoch
	// before mutating again; fenced writes are dropped, never replayed.
	ErrFenced = errors.New("cachesvc: write fenced (stale or expired epoch)")
	// ErrExpired rejects a Renew of a lease past its deadline: renewal
	// cannot resurrect an expired lease, only Acquire can.
	ErrExpired = errors.New("cachesvc: lease expired; re-acquire for a new epoch")
	// ErrNotHeld rejects Release/Renew of a lease that is not the
	// current grant (double release, or superseded by a newer epoch).
	ErrNotHeld = errors.New("cachesvc: lease not held")
	// ErrWrongGroup rejects a mutation whose key belongs to a different
	// shard group than the lease covers — a client bug, not a fence.
	ErrWrongGroup = errors.New("cachesvc: key outside the lease's shard group")
)

// Lease is one grant: mount holds epoch over one shard group until
// Expires (on the service clock). The epoch is the fencing token every
// mutation carries.
type Lease struct {
	Mount   string
	Group   int
	Epoch   uint64
	Expires time.Duration
}

type leaseID struct {
	mount string
	group int
}

type leaseState struct {
	epoch   uint64
	expires time.Duration
}

// Acquire grants mount a fresh lease over the shard group. Every
// acquisition mints a new epoch — a reconnecting mount always comes
// back with a higher epoch than anything it had in flight, which is
// what fences its stale writes.
func (s *Service) Acquire(mount string, group int) (Lease, error) {
	if group < 0 || group >= s.opts.Groups {
		return Lease{}, ErrWrongGroup
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := leaseID{mount, group}
	epoch := s.epochs[id] + 1
	s.epochs[id] = epoch
	st := &leaseState{epoch: epoch, expires: s.clock.Now() + s.opts.LeaseTTL}
	s.leases[id] = st
	s.granted++
	return Lease{Mount: mount, Group: group, Epoch: epoch, Expires: st.expires}, nil
}

// Renew extends an unexpired lease to a fresh TTL, keeping its epoch.
// A lease at or past its deadline cannot be renewed (ErrExpired); a
// lease superseded or released returns ErrNotHeld.
func (s *Service) Renew(l Lease) (Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := leaseID{l.Mount, l.Group}
	st, ok := s.leases[id]
	if !ok || st.epoch != l.Epoch {
		return Lease{}, ErrNotHeld
	}
	if s.clock.Now() >= st.expires {
		s.expired++
		delete(s.leases, id)
		return Lease{}, ErrExpired
	}
	st.expires = s.clock.Now() + s.opts.LeaseTTL
	l.Expires = st.expires
	return l, nil
}

// Release drops the lease. Releasing a lease that is not the current
// grant — already released, or superseded by a newer epoch — returns
// ErrNotHeld, so a double release is always visible to the caller.
func (s *Service) Release(l Lease) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := leaseID{l.Mount, l.Group}
	st, ok := s.leases[id]
	if !ok || st.epoch != l.Epoch {
		return ErrNotHeld
	}
	delete(s.leases, id)
	return nil
}

// admit is the fence: a mutation of key under lease l is admitted
// only if l covers key's shard group, is the current grant for
// (mount, group), and has not reached its deadline. Expiry is judged on
// the service clock — the holder's opinion does not matter, which is
// exactly what makes a partitioned mount safe.
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
	id := leaseID{l.Mount, l.Group}
	st, ok := s.leases[id]
	fenced := false
	switch {
	case !ok || st.epoch != l.Epoch:
		s.fenced++
		fenced = true
	case s.clock.Now() >= st.expires:
		s.expired++
		s.fenced++
		delete(s.leases, id)
		fenced = true
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
