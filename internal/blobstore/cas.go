package blobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// CASOptions configures a content-addressed chunk store. It holds no
// option; NewCAS still takes it, as the bench module calls it.
type CASOptions struct{}

// CAS is the content-addressed chunk store: blobs are SHA-256
// addressed, identical content is stored once, and chunks are freed
// when their last reference is deleted. It is the backend that lets a
// registry's worth of container images share their common bytes.
type CAS struct {
	mu     sync.RWMutex
	chunks map[Ref]*casChunk
	stats  Stats
}

type casChunk struct {
	data []byte
	refs int
}

// NewCAS returns an empty content-addressed store.
func NewCAS(CASOptions) *CAS {
	return &CAS{chunks: make(map[Ref]*casChunk)}
}

// Put implements Store: duplicate content is absorbed into the existing
// chunk, whose reference count grows instead of its storage.
func (c *CAS) Put(data []byte) (Ref, error) {
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

// Chunker is implemented by a store with a preferred fixed chunk size.
// No store here implements it and nothing asks for it; it stays only
// because the bench module's traced store names it.
type Chunker interface {
	ChunkSize() int
}
