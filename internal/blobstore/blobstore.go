// Package blobstore is the pluggable backend store layer under the VFS:
// file content lives in a Store as immutable, reference-counted blobs
// instead of private page maps inside each filesystem. Three backends
// implement the interface:
//
//   - Mem: map-backed private blobs, one per Put — the behaviour memfs
//     had when every inode owned its pages.
//   - Dir: an on-disk object directory (objects/<xx>/<hash>) whose I/O
//     is costed through internal/sim's clock and disk model, so it stays
//     deterministic and benchmarkable.
//   - CAS: a content-addressed chunk store — blobs are SHA-256
//     addressed and deduplicated, so identical content written by any
//     number of files, images or layers is stored once.
//
// Stores are reference counted: Put on content a CAS already holds
// increments the chunk's count, Delete decrements it, and the chunk's
// storage is freed when the last reference goes away — the GC model
// container layers need when thousands of images share chunks.
package blobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// Ref names one stored blob. For content-addressed backends it is the
// hex SHA-256 of the content; for Mem it is an opaque unique id. Either
// way it is only meaningful to the store that issued it.
type Ref string

// Sum returns the content address of data (hex SHA-256) — the Ref a
// content-addressed store will issue for it.
func Sum(data []byte) Ref {
	h := sha256.Sum256(data)
	return Ref(hex.EncodeToString(h[:]))
}

// Info describes one stored blob.
type Info struct {
	// Size is the blob's length in bytes.
	Size int64
	// RefCount is the number of live references (Puts minus Deletes).
	RefCount int
}

// Stats aggregates a store's lifetime and live-data counters.
type Stats struct {
	// Blobs is the number of distinct live blobs.
	Blobs int64
	// LogicalBytes is the reference-weighted live data: every live
	// reference contributes its blob's full size, as if each had a
	// private copy.
	LogicalBytes int64
	// PhysicalBytes is the unique live data actually stored.
	PhysicalBytes int64
	// Puts, Gets and Deletes count operations.
	Puts, Gets, Deletes int64
	// DedupHits counts Puts that were absorbed by an existing blob.
	DedupHits int64
}

// DedupRatio is logical over physical live bytes: 1.0 means every
// reference has a private copy, higher means sharing. Zero physical
// bytes reports 1.0.
func (s Stats) DedupRatio() float64 {
	if s.PhysicalBytes == 0 {
		return 1.0
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// Store is the backend interface. Implementations must be safe for
// concurrent use.
//
// Aliasing contract: Put copies data (callers may reuse the buffer);
// the slice Get returns is owned by the store and MUST NOT be modified
// by the caller — content-addressed backends share it between every
// reference. Only Mem also promises that the slice keeps its bytes while
// held (Mem.View); CAS.CorruptForTest flips a chunk's bytes in place, so
// a caller of any other store copies what it keeps.
type Store interface {
	// Put stores data and returns its reference, taking one reference
	// count. Content-addressed backends absorb duplicate content into
	// the existing blob.
	Put(data []byte) (Ref, error)
	// Get returns the blob's content, counted in Stats.Gets and, for a
	// store with a disk behind it, charged. ErrNotFound if no live blob
	// has this ref; ErrCorrupt if the stored bytes fail verification.
	Get(ref Ref) ([]byte, error)
	// Stat reports a live blob's size and reference count.
	Stat(ref Ref) (Info, error)
	// Delete drops one reference; the blob is freed when the count
	// reaches zero.
	Delete(ref Ref) error
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
}

// Sentinel errors a Store returns. Filesystems surface either as EIO:
// a reference the filesystem holds must resolve, so failure to do so is
// an I/O error, not a name error.
var (
	ErrNotFound = errors.New("blobstore: blob not found")
	ErrCorrupt  = errors.New("blobstore: blob failed content verification")
)
