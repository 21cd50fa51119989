package fuse

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"cntr/internal/vfs"
)

// TestWalkAfterWriteAsksNothing pins the kernel's rule for attributes a
// write made stale: a path walk through the file's valid dentry sends no
// request (fuse_dentry_revalidate), while stat(2) — a lookup marked
// Op.Stat — and Getattr revalidate with one GETATTR and return the size,
// mtime and blocks the server has after the write. Every request that
// drops the record (Setxattr, Link, Unlink, expiry) still costs the next
// walk a GETATTR, and Setattr's reply replaces the record with a fresh one.
func TestWalkAfterWriteAsksNothing(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 10000)
	write := func(op *vfs.Op, c *Conn, h vfs.Handle) error {
		_, err := c.Write(op, h, 0, data)
		return err
	}
	walk := func(e *nosecEnv, _ vfs.Ino) (vfs.Attr, error) {
		return e.conn.Lookup(vfs.RootOp(), vfs.RootIno, "f")
	}
	stat := func(e *nosecEnv, _ vfs.Ino) (vfs.Attr, error) {
		op := vfs.RootOp()
		op.Stat = true
		return e.conn.Lookup(op, vfs.RootIno, "f")
	}
	getattr := func(e *nosecEnv, ino vfs.Ino) (vfs.Attr, error) {
		return e.conn.Getattr(vfs.RootOp(), ino)
	}
	opts := DefaultMountOptions()
	opts.EntryTimeout = 10 * opts.AttrTimeout // expiry drops the attributes, not the dentry
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name string
		// after runs between the write and the read-back, on f's inode.
		after    func(t *testing.T, e *nosecEnv, ino vfs.Ino, h vfs.Handle)
		read     func(e *nosecEnv, ino vfs.Ino) (vfs.Attr, error)
		getattrs int64
	}{
		{"sync write, walk", nil, walk, 0},
		{"sync write, stat", nil, stat, 1},
		{"sync write, getattr", nil, getattr, 1},
		{"setxattr, walk", func(t *testing.T, e *nosecEnv, ino vfs.Ino, _ vfs.Handle) {
			must(t, e.conn.Setxattr(vfs.RootOp(), ino, "user.a", []byte("v"), 0))
		}, walk, 1},
		{"link, walk", func(t *testing.T, e *nosecEnv, ino vfs.Ino, _ vfs.Handle) {
			_, err := e.conn.Link(vfs.RootOp(), ino, vfs.RootIno, "g")
			must(t, err)
		}, walk, 1},
		{"unlink, walk", func(t *testing.T, e *nosecEnv, ino vfs.Ino, h vfs.Handle) {
			// The link drops the record too: walk once to cache it again and
			// write again to make it stale, so only the unlink is measured.
			_, err := e.conn.Link(vfs.RootOp(), ino, vfs.RootIno, "g")
			must(t, err)
			_, err = walk(e, ino)
			must(t, err)
			must(t, write(vfs.RootOp(), e.conn, h))
			must(t, e.conn.Unlink(vfs.RootOp(), vfs.RootIno, "g"))
		}, walk, 1},
		{"expiry, walk", func(t *testing.T, e *nosecEnv, _ vfs.Ino, _ vfs.Handle) {
			e.clock.Advance(opts.AttrTimeout + time.Nanosecond)
		}, walk, 1},
		{"setattr, stat", func(t *testing.T, e *nosecEnv, ino vfs.Ino, _ vfs.Handle) {
			_, err := e.conn.Setattr(vfs.RootOp(), ino, vfs.SetMode, vfs.Attr{Mode: 0o600})
			must(t, err)
		}, stat, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := nosecMount(t, opts)
			op := vfs.RootOp()
			created, h, err := e.conn.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
			must(t, err)
			defer e.conn.Release(op, h)
			must(t, write(op, e.conn, h))
			if row.after != nil {
				row.after(t, e, created.Ino, h)
			}
			getattrs, lookups := e.spy.getattrs.Load(), e.spy.lookups.Load()
			got, err := row.read(e, created.Ino)
			must(t, err)
			if n := e.spy.getattrs.Load() - getattrs; n != row.getattrs {
				t.Errorf("%d GETATTRs on the wire, want %d", n, row.getattrs)
			}
			if n := e.spy.lookups.Load() - lookups; n != 0 {
				t.Errorf("%d LOOKUPs on the wire through a valid dentry", n)
			}
			if got.Ino != created.Ino || got.Type != vfs.TypeRegular {
				t.Fatalf("read back inode %d type %v, want %d %v", got.Ino, got.Type, created.Ino, vfs.TypeRegular)
			}
			if row.getattrs == 0 && row.after == nil {
				return // a walk from the data-stale record: nobody reads its size
			}
			host, err := e.host.Getattr(op, created.Ino)
			must(t, err)
			if got.Size != host.Size || !got.Mtime.Equal(host.Mtime) || got.Blocks != host.Blocks {
				t.Errorf("read back size %d mtime %v blocks %d; the server has %d %v %d",
					got.Size, got.Mtime, got.Blocks, host.Size, host.Mtime, host.Blocks)
			}
		})
	}
}

// cachedEntry returns the dentry parent/name as the Conn holds it.
func cachedEntry(c *Conn, parent vfs.Ino, name string) (entryVal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[entryKey{parent, name}]
	return v, ok
}

// TestRenameMovesDentry pins d_move: a successful plain or
// RENAME_NOREPLACE rename leaves the old dentry at the new name with its
// inode and its original expiry, so the renamed file is found without a
// LOOKUP, and a replaced target's dentry is gone. A failed rename,
// RENAME_EXCHANGE and RENAME_WHITEOUT drop both names.
func TestRenameMovesDentry(t *testing.T) {
	const renameWhiteout vfs.RenameFlags = 1 << 2 // RENAME_WHITEOUT; memfs ignores it
	rows := []struct {
		name    string
		target  bool // b exists before the rename
		flags   vfs.RenameFlags
		wantErr vfs.Errno
		moved   bool
	}{
		{"plain", false, 0, vfs.OK, true},
		{"noreplace", false, vfs.RenameNoReplace, vfs.OK, true},
		{"over a target", true, 0, vfs.OK, true},
		{"failed", true, vfs.RenameNoReplace, vfs.EEXIST, false},
		{"exchange", true, vfs.RenameExchange, vfs.OK, false},
		{"whiteout", false, renameWhiteout, vfs.OK, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := nosecMount(t, DefaultMountOptions())
			op := vfs.RootOp()
			create := func(name string) vfs.Ino {
				attr, h, err := e.conn.Create(op, vfs.RootIno, name, 0o644, vfs.OWronly)
				if err != nil {
					t.Fatal(err)
				}
				e.conn.Release(op, h)
				return attr.Ino
			}
			a := create("a")
			if row.target {
				create("b")
			}
			orig, _ := cachedEntry(e.conn, vfs.RootIno, "a")
			e.clock.Advance(DefaultMountOptions().EntryTimeout / 2)
			err := e.conn.Rename(op, vfs.RootIno, "a", vfs.RootIno, "b", row.flags)
			if vfs.ToErrno(err) != row.wantErr {
				t.Fatalf("rename: %v, want %v", err, row.wantErr)
			}
			_, atA := cachedEntry(e.conn, vfs.RootIno, "a")
			atB, okB := cachedEntry(e.conn, vfs.RootIno, "b")
			if !row.moved {
				if atA || okB {
					t.Fatalf("dentries left: a %v, b %v; want both dropped", atA, okB)
				}
				return
			}
			if atA || !okB || atB != orig {
				t.Fatalf("dentries a %v, b %+v (cached %v); want only b, as %+v", atA, atB, okB, orig)
			}
			lookups := e.spy.lookups.Load()
			got, err := e.conn.Lookup(op, vfs.RootIno, "b")
			if err != nil || got.Ino != a {
				t.Fatalf("lookup of the new name: inode %d, %v; want %d", got.Ino, err, a)
			}
			if n := e.spy.lookups.Load() - lookups; n != 0 {
				t.Fatalf("lookup of the new name sent %d LOOKUPs", n)
			}
		})
	}
}

// TestAttrValFitsMapSlot: Go keeps a map element of at most 128 bytes in
// the map's own slots, and allocates one of its own for every insert of a
// larger one. A bool beside attrVal's expiry (136 bytes) did that to every
// attribute record the mount caches: meta host_allocs_per_op 1.134 →
// 1.187. That is why the data-stale mark is expiry's sign.
func TestAttrValFitsMapSlot(t *testing.T) {
	if n := unsafe.Sizeof(attrVal{}); n > 128 {
		t.Fatalf("attrVal is %d bytes; a map element over 128 is allocated on every insert", n)
	}
}
