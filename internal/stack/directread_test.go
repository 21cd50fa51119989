package stack

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

const directReadSpan = 192 << 10

var directReadNames = []string{"/a", "/b"}

// directReadStart makes one file on the host before the mount has seen
// anything: its first reads find no page in either cache. The sides'
// caches share a budget smaller than either file the script works on.
func directReadStart(t *testing.T, e *env, seed uint64) {
	seeded := make([]byte, directReadSpan/2)
	sim.NewRand(seed).Bytes(seeded)
	if err := vfs.NewClient(e.base, vfs.Root()).WriteFile("/a", seeded, 0o644); err != nil {
		t.Fatal(err)
	}
}

// directReadStep runs the script's next operation, on one of four handle
// slots, and renders what the caller saw.
func directReadStep(_ *testing.T, e *env, rng *sim.Rand) string {
	name := directReadNames[rng.Intn(len(directReadNames))]
	slot := rng.Intn(len(e.files))
	f := e.files[slot]
	off := int64(rng.Intn(directReadSpan))
	size := rng.Intn(24<<10) + 1
	switch k := rng.Intn(24); {
	case k < 5:
		flags := []vfs.OpenFlags{
			vfs.ORdonly, vfs.ORdonly, vfs.ORdonly, vfs.ORdwr, vfs.OWronly, vfs.OWronly | vfs.OAppend,
			vfs.ORdwr | vfs.OCreat, vfs.OWronly | vfs.OCreat | vfs.OTrunc,
		}[rng.Intn(8)]
		if f != nil {
			e.files[slot] = nil
			return fmt.Sprint("close ", slot, f.Close())
		}
		nf, err := e.root.Open(name, flags, 0o644)
		if err == nil {
			e.files[slot] = &nf
		}
		return fmt.Sprintf("open %s %#x -> %d: %v", name, flags, slot, err)
	case k < 13:
		if f == nil {
			got, err := e.root.ReadFile(name)
			return fmt.Sprintf("readfile %s: %d %08x %v", name, len(got), crc32.ChecksumIEEE(got), err)
		}
		buf := make([]byte, size)
		n, err := f.ReadAt(buf, off)
		return fmt.Sprintf("read %d %d@%d: %d %08x %v", slot, size, off, n, crc32.ChecksumIEEE(buf[:n]), err)
	case k < 19:
		if f == nil {
			return "write: no handle"
		}
		data := make([]byte, size)
		rng.Bytes(data)
		n, err := f.WriteAt(data, off)
		return fmt.Sprintf("write %d %d@%d: %d %v", slot, size, off, n, err)
	case k < 20:
		return fmt.Sprint("truncate ", name, off, e.root.Truncate(name, off))
	case k < 21:
		if f == nil {
			return "fsync: no handle"
		}
		return fmt.Sprint("fsync ", slot, f.Sync())
	case k < 22:
		return fmt.Sprint("unlink ", name, e.root.Remove(name))
	default:
		attr, err := e.root.Stat(name)
		return fmt.Sprint("stat ", name, attr.Size, err)
	}
}

// directOpenCounter counts the opens that reach the filesystem below it
// carrying O_DIRECT.
type directOpenCounter struct {
	vfs.FS
	direct atomic.Int64
}

func (d *directOpenCounter) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	if flags&vfs.ODirect != 0 {
		d.direct.Add(1)
	}
	return d.FS.Open(op, ino, flags)
}

// TestDirectReadIgnoredWithoutHostCache: the server's O_DIRECT means
// something only to a page cache below it. A base without one — memfs, a
// union of image layers: what cntr.Attach serves a tools filesystem from,
// through this same NewMount — is handed the flag, ignores it and serves
// the same bytes.
func TestDirectReadIgnoredWithoutHostCache(t *testing.T) {
	content := make([]byte, 300<<10+123)
	sim.NewRand(7).Bytes(content)
	seeded := func() *memfs.FS {
		m := memfs.New(memfs.Options{})
		if err := vfs.NewClient(m, vfs.Root()).WriteFile("/tool", content, 0o755); err != nil {
			t.Fatal(err)
		}
		return m
	}
	on, off := fuse.DefaultMountOptions(), fuse.DefaultMountOptions()
	off.DirectRead = false
	for name, base := range map[string]func() vfs.FS{
		"memfs":   func() vfs.FS { return seeded() },
		"unionfs": func() vfs.FS { return unionfs.NewWith(unionfs.Options{}, seeded()) },
	} {
		for _, mount := range []fuse.MountOptions{on, off} {
			spy := &directOpenCounter{FS: base()}
			m := NewMount(spy, sim.NewClock(), sim.DefaultCostModel(), Config{Mount: mount})
			got, err := vfs.NewClient(m.Kernel, vfs.Root()).ReadFile("/tool")
			m.Close()
			if err != nil || !bytes.Equal(got, content) {
				t.Errorf("%s, DirectRead %v: read %d bytes through the mount, %v", name, mount.DirectRead, len(got), err)
			}
			if reached := spy.direct.Load() > 0; reached != mount.DirectRead {
				t.Errorf("%s, DirectRead %v: O_DIRECT reached the base: %v", name, mount.DirectRead, reached)
			}
		}
	}
}
