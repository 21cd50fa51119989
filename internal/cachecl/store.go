package cachecl

import (
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/sim"
)

// StoreOptions configures the store wrapper.
type StoreOptions struct {
	// Origin, when set, charges backend fallthrough traffic to the
	// mount's clock through a disk model: with a shared tier in front,
	// the backend store *is* the origin volume, and every Get the tier
	// cannot serve pays an origin I/O. Give the disk a queue depth
	// matching the readahead window (in chunks) so per-chunk seeks
	// amortize the way pipelined chunk fetches do. The tier lookup in
	// front of each fetch belongs to the same window, so it pays NetRTT
	// over the same depth.
	//
	// Both charges spread a window's latency over the depth, not over the
	// chunks actually sent: a window shorter than the depth pays less
	// than one full seek and one full round trip (a 16-chunk file at
	// depth 32 pays half of each). Charging a window's first chunk in
	// full would need the window boundary here, which blobstore.Store
	// does not carry.
	Origin *sim.Disk
}

// Store wraps a backend blobstore.Store with the shared cache tier:
// this is the layer that sits between a mount's filesystem
// (memfs blocks, pagecache misses) and the backend store. Get consults
// the tier first — a hit costs a pipelined intra-cluster lookup instead
// of an origin I/O — and read-populates it on a miss; Put writes through
// to the backend and publishes the chunk so sibling mounts' cold reads hit.
// Every publish carries the client's epoch lease, so a mount whose
// lease was released or superseded mid-writeback cannot land stale
// bytes in the tier (the local backend write still succeeds: fencing
// protects the shared cache, not the mount's own durability).
type Store struct {
	backend blobstore.Store
	cl      *Client
	opts    StoreOptions
}

// WrapStore builds the cache-tier store layer over backend.
func WrapStore(backend blobstore.Store, cl *Client, opts StoreOptions) *Store {
	return &Store{backend: backend, cl: cl, opts: opts}
}

// Put implements blobstore.Store: the backend write is the durable
// one; the tier publish is write-through but best-effort — a fenced
// publish is dropped (counted by the client), never retried, and never
// fails the write.
func (s *Store) Put(data []byte) (blobstore.Ref, error) {
	ref, err := s.backend.Put(data)
	if err != nil {
		return ref, err
	}
	if s.opts.Origin != nil {
		s.opts.Origin.Write(len(data))
	}
	s.cl.PutChunk(ref, data)
	return ref, nil
}

// Get implements blobstore.Store: tier first, origin on a miss, then a
// write-behind publish so the next mount's read hits. The publish is
// epoch-fenced like any mutation. The lookup is one of the origin's
// window, so its round trip is amortized over the origin's queue depth;
// with no origin it blocks for a full NetRTT. The returned slice is
// owned by the tier or the backend and must not be modified.
func (s *Store) Get(ref blobstore.Ref) ([]byte, error) {
	rtt := s.cl.model.NetRTT / time.Duration(s.opts.Origin.QueueDepth())
	if data, ok := s.cl.get(cachesvc.ChunkKey(ref), rtt); ok {
		return data, nil
	}
	data, err := s.backend.Get(ref)
	if err != nil {
		return nil, err
	}
	if s.opts.Origin != nil {
		s.opts.Origin.Read(len(data))
	}
	s.cl.PublishChunk(ref, data)
	return data, nil
}

// Stat implements blobstore.Store (backend metadata, not charged as
// tier traffic).
func (s *Store) Stat(ref blobstore.Ref) (blobstore.Info, error) {
	return s.backend.Stat(ref)
}

// Delete implements blobstore.Store: the backend reference is dropped,
// and when the last one goes away the chunk is invalidated in the tier
// too — other mounts may still hold their own backend references, in
// which case the cached copy stays valid and stays put.
func (s *Store) Delete(ref blobstore.Ref) error {
	if err := s.backend.Delete(ref); err != nil {
		return err
	}
	if _, err := s.backend.Stat(ref); err != nil {
		s.cl.InvalidateChunk(ref)
	}
	return nil
}

// Stats implements blobstore.Store, delegating to the backend (tier
// traffic is on Client.Stats).
func (s *Store) Stats() blobstore.Stats { return s.backend.Stats() }
