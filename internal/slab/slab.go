// Package slab hands out fixed-size records of one type from shared
// blocks, as the kernel's per-type slab caches do (Bonwick, "The Slab
// Allocator", USENIX Summer '94): a table that makes a record per file
// costs the heap one object per block, not one per record.
package slab

// maxBlock caps the records of one block. A block lives while any record
// cut from it is reachable, so the cap bounds what one live record can
// pin.
const maxBlock = 64

// maxFree caps the free list of every slab: memfs's inodes, radix nodes,
// cachesvc's entries and the page cache's file records, pages and page
// buffers. It is sized for the page buffers, the one burst of frees that
// was measured: a page cache whose pages share the stored blocks once
// written back frees a whole extent's buffers at once, and an extent is at
// most 1 MiB (the host's ext4 bio, FUSE_MAX_PAGES above the mount), 256
// pages. A shorter list leaves each burst's rest to the collector. The
// other users' bursts were not sized; for them the cap only bounds what an
// idle list holds.
const maxFree = (1 << 20) / 4096

// Slab is a source of zeroed *T. The zero value is ready to use; a Slab
// is not safe for concurrent use, so its owner's lock guards it.
type Slab[T any] struct {
	block []T
	cut   int // records cut from blocks so far
	free  []*T
}

// New returns a zeroed record: the last one freed while the free list
// holds any, otherwise the next of the current block. Each block holds as
// many records as were cut before it, at least 1 and at most maxBlock, so
// blocks double from 1 to maxBlock and a slab that has cut a power of two
// records up to maxBlock, or a multiple of maxBlock, has no tail unused.
func (s *Slab[T]) New() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.block) == cap(s.block) {
		s.block = make([]T, 0, min(max(s.cut, 1), maxBlock))
	}
	s.cut++
	s.block = s.block[:len(s.block)+1]
	return &s.block[len(s.block)-1]
}

// Free zeroes p and keeps it for New while the free list holds fewer than
// maxFree records; past that it is left to the collector. p must come
// from New and must not be used again by its caller.
func (s *Slab[T]) Free(p *T) {
	var zero T
	*p = zero
	if len(s.free) < maxFree {
		if s.free == nil {
			s.free = make([]*T, 0, maxFree)
		}
		s.free = append(s.free, p)
	}
}
