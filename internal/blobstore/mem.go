package blobstore

import (
	"strconv"
	"sync"
)

const (
	// refBatch is how many refs Mem cuts from one string.
	refBatch = 64
	// maxRefLen is "m" and the widest counter in hex.
	maxRefLen = 1 + 16
)

// Mem is the map-backed store: every Put creates a private blob under a
// fresh opaque ref, exactly the ownership model memfs had when each
// inode held its own page map. No deduplication — its dedup ratio is
// always 1.0 — which makes it the behavioural baseline the
// content-addressed backends are measured against.
//
// A blob is copied into a shared run (Runs) and its ref cut from a string
// shared by refBatch consecutive counters, so a Put allocates nothing in
// the common case. Mem never writes or reuses a blob's bytes once Put has
// copied them: Delete only drops the map entry, and a slice Get or View
// returned keeps its bytes for as long as it is held. That is what lets a
// page cache over memfs point a clean page at a stored block instead of
// holding a copy (View).
type Mem struct {
	mu    sync.RWMutex
	blobs map[Ref][]byte
	next  uint64
	stats Stats
	runs  Runs
	// refs holds the refs of refsN counters from refsAt on, back to back;
	// the i-th ends at refEnds[i].
	refs          string
	refsAt, refsN uint64
	refEnds       [refBatch]uint16
}

// NewMem returns an empty map-backed store.
func NewMem() *Mem {
	return &Mem{blobs: make(map[Ref][]byte)}
}

// Put implements Store.
func (m *Mem) Put(data []byte) (Ref, error) {
	m.mu.Lock()
	b := m.runs.Copy(data)
	m.next++
	ref := m.ref(m.next)
	m.blobs[ref] = b
	m.stats.Puts++
	m.stats.Blobs++
	m.stats.LogicalBytes += int64(len(b))
	m.stats.PhysicalBytes += int64(len(b))
	m.mu.Unlock()
	return ref, nil
}

// ref returns the ref of counter: "m" and the counter in hex. It is cut
// from the current batch, which is rebuilt from counter on when it does
// not hold it. Caller holds m.mu.
func (m *Mem) ref(counter uint64) Ref {
	i := counter - m.refsAt
	if i >= m.refsN {
		m.fillRefs(counter)
		i = 0
	}
	start := uint16(0)
	if i > 0 {
		start = m.refEnds[i-1]
	}
	return Ref(m.refs[start:m.refEnds[i]])
}

// fillRefs builds the refs of the refBatch counters from counter on, or
// of those up to the widest, on the stack and keeps them as one string.
func (m *Mem) fillRefs(counter uint64) {
	var a [refBatch * maxRefLen]byte
	b := a[:0]
	m.refsAt, m.refsN = counter, 0
	for m.refsN < refBatch {
		b = strconv.AppendUint(append(b, 'm'), counter+m.refsN, 16)
		m.refEnds[m.refsN] = uint16(len(b))
		m.refsN++
		if counter+m.refsN == 0 {
			break // the counter wraps
		}
	}
	m.refs = string(b)
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

// View returns the bytes stored as ref, and whether it is live, without
// counting a Get: it is how a cache above reads a blob it shares rather
// than a read of the store. The caller must not modify them; they never
// change while held.
func (m *Mem) View(ref Ref) ([]byte, bool) {
	m.mu.RLock()
	b, ok := m.blobs[ref]
	m.mu.RUnlock()
	return b, ok
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
// Delete always drops the blob; its bytes stay with its run.
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
