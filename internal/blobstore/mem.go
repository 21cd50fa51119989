package blobstore

import (
	"strconv"
	"sync"
)

// Mem is the map-backed store: every Put creates a private blob under a
// fresh opaque ref, exactly the ownership model memfs had when each
// inode held its own page map. No deduplication — its dedup ratio is
// always 1.0 — which makes it the behavioural baseline the
// content-addressed backends are measured against.
type Mem struct {
	mu    sync.RWMutex
	blobs map[Ref][]byte
	next  uint64
	stats Stats
}

// NewMem returns an empty map-backed store.
func NewMem() *Mem {
	return &Mem{blobs: make(map[Ref][]byte)}
}

// Put implements Store.
func (m *Mem) Put(data []byte) (Ref, error) {
	b := append([]byte(nil), data...)
	m.mu.Lock()
	m.next++
	// "m" and the counter in hex, built on the stack: one allocation.
	var a [17]byte
	a[0] = 'm'
	ref := Ref(strconv.AppendUint(a[:1], m.next, 16))
	m.blobs[ref] = b
	m.stats.Puts++
	m.stats.Blobs++
	m.stats.LogicalBytes += int64(len(b))
	m.stats.PhysicalBytes += int64(len(b))
	m.mu.Unlock()
	return ref, nil
}

// Get implements Store.
func (m *Mem) Get(ref Ref) ([]byte, error) {
	m.mu.Lock()
	m.stats.Gets++
	b, ok := m.blobs[ref]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

// Stat implements Store.
func (m *Mem) Stat(ref Ref) (Info, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blobs[ref]
	if !ok {
		return Info{}, ErrNotFound
	}
	return Info{Size: int64(len(b)), RefCount: 1}, nil
}

// Delete implements Store. Mem blobs have exactly one reference, so
// Delete always frees.
func (m *Mem) Delete(ref Ref) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[ref]
	if !ok {
		return ErrNotFound
	}
	delete(m.blobs, ref)
	m.stats.Deletes++
	m.stats.Blobs--
	m.stats.LogicalBytes -= int64(len(b))
	m.stats.PhysicalBytes -= int64(len(b))
	return nil
}

// Stats implements Store.
func (m *Mem) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}
