package fuse

import (
	"sync"

	"cntr/internal/vfs"
)

// nameSlots is the size of a nameTable, a power of two: the smallest of
// 256, 1024 and 4096 whose heap objects per op on the bench's meta
// workload come within 5 % of the best (256 read 1.7 % above 4096).
const nameSlots = 256

// nameTable interns the names FUSE frames carry, so a name decoded
// before costs no allocation: the kernel keeps a short name inline in its
// dentry, and libfuse hands the server a pointer into its request buffer.
// Each name has one slot, picked by a hash of its bytes; a name that
// finds another in its slot replaces it. Strings are immutable, so every
// holder of an interned name may keep it. The Server and the Conn have one
// table each.
type nameTable struct {
	mu    sync.Mutex
	slots [nameSlots]string
}

// nameSlot returns b's slot: FNV-1a over its bytes, deterministic from
// run to run as maphash is not.
func nameSlot(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h & (nameSlots - 1)
}

// intern returns b as a string: the one its slot holds when that is b,
// else a new one, which the slot then holds.
func (t *nameTable) intern(b []byte) string {
	i := nameSlot(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.slots[i]; s == string(b) {
		return s
	}
	s := string(b)
	t.slots[i] = s
	return s
}

// name decodes a length-prefixed name through t. A name longer than
// vfs.MaxNameLen, which no filesystem accepts, is copied as str copies it,
// so that a slot never holds a long string; an empty or cut-off name never
// reaches the table.
func (r *rdr) name(t *nameTable) string {
	b := r.rawBytes()
	if len(b) == 0 || len(b) > vfs.MaxNameLen {
		return string(b)
	}
	return t.intern(b)
}
