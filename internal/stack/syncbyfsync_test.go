package stack

import (
	"bytes"
	"sync/atomic"
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/fuse"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// putOrder is a host filesystem's store that notes how many device
// writes its disk had seen when a block was last stored: a device write
// counted after that follows the data.
type putOrder struct {
	blobstore.Store
	disk   *sim.Disk
	writes atomic.Int64
}

func (s *putOrder) Put(data []byte) (blobstore.Ref, error) {
	ref, err := s.Store.Put(data)
	s.writes.Store(s.disk.Stats().Writes)
	return ref, err
}

// syncSide is a mount and the device barriers it pays per O_SYNC write.
type syncSide struct {
	name     string
	mount    fuse.MountOptions
	barriers int64
}

// syncSides are the three mounts TestSyncByFsyncDurability compares. With
// MountOptions.SyncByFsync a write pays the kernel's FSYNC alone; without
// it, that FSYNC and the host's own O_SYNC write; on a write-through
// mount, which sends no FSYNC, the host's O_SYNC alone — the rule must
// leave it there.
func syncSides() []syncSide {
	on, off, through := fuse.DefaultMountOptions(), fuse.DefaultMountOptions(), fuse.DefaultMountOptions()
	off.SyncByFsync = false
	through.WritebackCache = false
	return []syncSide{{"rule on", on, 1}, {"rule off", off, 2}, {"rule on, write-through", through, 1}}
}

// TestSyncByFsyncDurability is the durability differential for
// MountOptions.SyncByFsync: AIO-Stress's fallback — 32 KiB O_SYNC writes —
// through stack.NewCntr on each of syncSides. When a write returns, the
// host cache has written back every byte it was handed, the host disk's
// written bytes have grown by the write's size, the data reached the host
// filesystem before any device write of the call, and the call paid
// exactly its side's barriers. The host filesystem holds the same bytes on
// every side.
func TestSyncByFsyncDurability(t *testing.T) {
	const writes, size = 8, 32 << 10
	var first []byte
	for _, side := range syncSides() {
		store := &putOrder{Store: blobstore.NewMem()}
		c := NewCntr(Config{Mount: side.mount, Store: store})
		store.disk = c.Disk
		f, err := vfs.NewClient(c.Top, vfs.Root()).Open("/aio", vfs.OWronly|vfs.OCreat|vfs.OSync, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRand(42)
		var want, got []byte
		for i := int64(0); i < writes; i++ {
			data := make([]byte, size)
			rng.Bytes(data)
			disk, host := c.Disk.Stats(), c.HostPC.Stats()
			if n, err := f.WriteAt(data, i*size); n != size || err != nil {
				t.Fatalf("%s, write %d: %d, %v", side.name, i, n, err)
			}
			want = append(want, data...)
			diskAfter, hostAfter := c.Disk.Stats(), c.HostPC.Stats()
			if flushed := hostAfter.FlushedB - host.FlushedB; flushed != size {
				t.Errorf("%s, write %d: the host cache wrote back %d bytes, want %d", side.name, i, flushed, size)
			}
			if written := diskAfter.BytesWrite - disk.BytesWrite; written != size {
				t.Errorf("%s, write %d: the host disk took %d bytes, want %d", side.name, i, written, size)
			}
			if stored := store.writes.Load(); stored != disk.Writes {
				t.Errorf("%s, write %d: %d device writes came before the data was stored", side.name, i, stored-disk.Writes)
			}
			extents := hostAfter.FlushedExt - host.FlushedExt
			if barriers := diskAfter.Writes - disk.Writes - extents; barriers != side.barriers {
				t.Errorf("%s, write %d: %d device barriers, want %d", side.name, i, barriers, side.barriers)
			}
			got, err = vfs.NewClient(c.Host, vfs.Root()).ReadFile("/aio")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s, write %d: the host filesystem holds %d bytes (%v), not the %d written", side.name, i, len(got), err, len(want))
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("%s: the host file differs from the first side's", side.name)
		}
	}
}

// TestSyncByFsyncStoreFailure: an O_SYNC write the host cannot store
// fails, with a zero count, on every side — with the rule, the error
// surfaces at the kernel's FSYNC instead of at the host's write, and is
// what the write returns all the same.
func TestSyncByFsyncStoreFailure(t *testing.T) {
	for _, side := range syncSides() {
		full := blobstore.NewFaultInjector(blobstore.NewMem(), blobstore.FaultRule{Op: blobstore.FaultPut, Err: blobstore.ErrCorrupt})
		c := NewCntr(Config{Mount: side.mount, Store: full})
		f, err := vfs.NewClient(c.Top, vfs.Root()).Open("/aio", vfs.OWronly|vfs.OCreat|vfs.OSync, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.WriteAt(make([]byte, 32<<10), 0); n != 0 || vfs.ToErrno(err) != vfs.EIO {
			t.Errorf("%s: O_SYNC write the host cannot store: %d, %v; want 0, EIO", side.name, n, err)
		}
		f.Close()
		c.Close()
	}
}
