package blobstore

import (
	"sync"

	"cntr/internal/sim"
)

// DirOptions configures an on-disk object-directory store.
type DirOptions struct {
	// Disk, when set, charges every object write and read to the
	// simulated block device (seek + per-KB transfer), advancing its
	// clock. Nil models an unmetered directory.
	Disk *sim.Disk
	// Clock and Model, when both set, additionally charge one InodeOp
	// per object operation (the dentry/inode work of the object path).
	Clock *sim.Clock
	Model *sim.CostModel
}

// Dir models an on-disk object directory in the git/OSTree layout:
// objects are content addressed and stored under objects/<xx>/<hash>,
// where <xx> is the first address byte — the standard fan-out that
// keeps directory sizes bounded. Content is held in memory (this
// repository simulates its devices) while every access is costed
// through the sim clock/disk model, so a Dir-backed stack is
// deterministic and benchmarkable like everything else.
//
// Like CAS it deduplicates whole blobs (content addressing gives that
// for free) and reference-counts them; unlike CAS it stores each blob
// as one object and never verifies on read, like a filesystem trusting
// its device.
type Dir struct {
	opts DirOptions

	mu      sync.RWMutex
	objects map[Ref]*casChunk
	stats   Stats
}

// NewDir returns an empty object-directory store.
func NewDir(opts DirOptions) *Dir {
	return &Dir{opts: opts, objects: make(map[Ref]*casChunk)}
}

func (d *Dir) chargeMeta() {
	if d.opts.Clock != nil && d.opts.Model != nil {
		d.opts.Clock.Advance(d.opts.Model.InodeOp)
	}
}

// Put implements Store; new objects pay one disk write.
func (d *Dir) Put(data []byte) (Ref, error) {
	ref := Sum(data)
	d.chargeMeta()
	d.mu.Lock()
	d.stats.Puts++
	d.stats.LogicalBytes += int64(len(data))
	if obj, ok := d.objects[ref]; ok {
		obj.refs++
		d.stats.DedupHits++
		d.mu.Unlock()
		return ref, nil
	}
	d.objects[ref] = &casChunk{data: append([]byte(nil), data...), refs: 1}
	d.stats.Blobs++
	d.stats.PhysicalBytes += int64(len(data))
	d.mu.Unlock()
	d.opts.Disk.Write(len(data))
	return ref, nil
}

// Get implements Store; every read pays one disk read.
func (d *Dir) Get(ref Ref) ([]byte, error) {
	d.chargeMeta()
	d.mu.Lock()
	d.stats.Gets++
	obj, ok := d.objects[ref]
	d.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	d.opts.Disk.Read(len(obj.data))
	return obj.data, nil
}

// Stat implements Store.
func (d *Dir) Stat(ref Ref) (Info, error) {
	d.chargeMeta()
	d.mu.RLock()
	defer d.mu.RUnlock()
	obj, ok := d.objects[ref]
	if !ok {
		return Info{}, ErrNotFound
	}
	return Info{Size: int64(len(obj.data)), RefCount: obj.refs}, nil
}

// Delete implements Store.
func (d *Dir) Delete(ref Ref) error {
	d.chargeMeta()
	d.mu.Lock()
	defer d.mu.Unlock()
	obj, ok := d.objects[ref]
	if !ok {
		return ErrNotFound
	}
	d.stats.Deletes++
	d.stats.LogicalBytes -= int64(len(obj.data))
	obj.refs--
	if obj.refs == 0 {
		delete(d.objects, ref)
		d.stats.Blobs--
		d.stats.PhysicalBytes -= int64(len(obj.data))
	}
	return nil
}

// Stats implements Store.
func (d *Dir) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}
