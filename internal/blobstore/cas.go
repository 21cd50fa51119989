package blobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"cntr/internal/sim"
)

// CASOptions configures a content-addressed chunk store.
type CASOptions struct {
	// ChunkSize is the store's preferred chunk size (default 4096, the
	// VFS block size, so filesystem blocks map 1:1 onto chunks). Put
	// itself accepts blobs of any length; ChunkSize is advertised
	// through the Chunker interface.
	ChunkSize int
	// Clock and Model, when both set, charge the hashing cost of Put
	// and verified Get in virtual time, keeping CAS-backed stacks
	// benchmarkable in the same currency as the disk model.
	Clock *sim.Clock
	Model *sim.CostModel
}

// CAS is the content-addressed chunk store: blobs are SHA-256
// addressed, identical content is stored once, and chunks are freed
// when their last reference is deleted. It is the backend that lets a
// registry's worth of container images share their common bytes.
type CAS struct {
	opts CASOptions

	mu     sync.RWMutex
	chunks map[Ref]*casChunk
	stats  Stats
}

type casChunk struct {
	data []byte
	refs int
}

// NewCAS returns an empty content-addressed store.
func NewCAS(opts CASOptions) *CAS {
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 4096
	}
	return &CAS{opts: opts, chunks: make(map[Ref]*casChunk)}
}

// ChunkSize implements Chunker.
func (c *CAS) ChunkSize() int { return c.opts.ChunkSize }

// chargeHash advances the virtual clock by the cost of hashing n bytes.
func (c *CAS) chargeHash(n int) {
	if c.opts.Clock != nil && c.opts.Model != nil {
		c.opts.Clock.Advance(c.opts.Model.HashCost(n))
	}
}

// Put implements Store: duplicate content is absorbed into the existing
// chunk, whose reference count grows instead of its storage.
func (c *CAS) Put(data []byte) (Ref, error) {
	c.chargeHash(len(data))
	ref := Sum(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++
	c.stats.LogicalBytes += int64(len(data))
	if ch, ok := c.chunks[ref]; ok {
		ch.refs++
		c.stats.DedupHits++
		return ref, nil
	}
	c.chunks[ref] = &casChunk{data: append([]byte(nil), data...), refs: 1}
	c.stats.Blobs++
	c.stats.PhysicalBytes += int64(len(data))
	return ref, nil
}

// Get implements Store, re-verifying the chunk's content address:
// end-to-end integrity is the point of content addressing.
func (c *CAS) Get(ref Ref) ([]byte, error) {
	c.mu.RLock()
	ch, ok := c.chunks[ref]
	c.mu.RUnlock()
	c.mu.Lock()
	c.stats.Gets++
	c.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	c.chargeHash(len(ch.data))
	if !addresses(ref, ch.data) {
		return nil, ErrCorrupt
	}
	return ch.data, nil
}

// addresses reports whether ref is data's content address, as Sum(data)
// == ref without building Sum's string.
func addresses(ref Ref, data []byte) bool {
	h := sha256.Sum256(data)
	var enc [2 * sha256.Size]byte
	hex.Encode(enc[:], h[:])
	return string(enc[:]) == string(ref)
}

// Stat implements Store.
func (c *CAS) Stat(ref Ref) (Info, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ch, ok := c.chunks[ref]
	if !ok {
		return Info{}, ErrNotFound
	}
	return Info{Size: int64(len(ch.data)), RefCount: ch.refs}, nil
}

// Delete implements Store: the chunk survives while other references
// hold it and is freed when the last one is dropped.
func (c *CAS) Delete(ref Ref) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.chunks[ref]
	if !ok {
		return ErrNotFound
	}
	c.stats.Deletes++
	c.stats.LogicalBytes -= int64(len(ch.data))
	ch.refs--
	if ch.refs == 0 {
		delete(c.chunks, ref)
		c.stats.Blobs--
		c.stats.PhysicalBytes -= int64(len(ch.data))
	}
	return nil
}

// Stats implements Store.
func (c *CAS) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// CorruptForTest flips a byte of the stored chunk so the next verified
// Get fails with ErrCorrupt — the fault-path hook integrity tests use.
func (c *CAS) CorruptForTest(ref Ref) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.chunks[ref]
	if !ok || len(ch.data) == 0 {
		return false
	}
	ch.data[0] ^= 0xff
	return true
}

// Chunker is implemented by stores with a preferred fixed chunk size,
// the boundary at which chunk-level deduplication lines up across
// writers.
type Chunker interface {
	ChunkSize() int
}
