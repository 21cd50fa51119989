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

// directReadEnv is one side of TestDirectReadDifferential: a CntrFS stack
// whose two caches share a budget smaller than either file the script
// works on — or, as the reference, a bare memfs (c is nil) — and the
// handles the script holds open on it.
type directReadEnv struct {
	c     *Cntr
	host  *memfs.FS
	cli   *vfs.Client
	files [4]*vfs.File
}

const directReadSpan = 192 << 10

var directReadNames = []string{"/a", "/b"}

func newDirectReadEnv(t *testing.T, mount *fuse.MountOptions, seed uint64) *directReadEnv {
	e := &directReadEnv{host: memfs.New(memfs.Options{})}
	var top vfs.FS = e.host
	if mount != nil {
		e.c = NewCntr(Config{RAM: 128 << 10, ReadAhead: 16 << 10, Mount: *mount})
		e.host, top = e.c.Host, e.c.Top
	}
	e.cli = vfs.NewClient(top, vfs.Root())
	// One file exists before the mount has seen anything: its first reads
	// find no page in either cache.
	seeded := make([]byte, directReadSpan/2)
	sim.NewRand(seed).Bytes(seeded)
	if err := vfs.NewClient(e.host, vfs.Root()).WriteFile("/a", seeded, 0o644); err != nil {
		t.Fatal(err)
	}
	return e
}

// step runs the script's next operation and renders what the caller saw.
func (e *directReadEnv) step(rng *sim.Rand) string {
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
			return fmt.Sprint("close ", slot, e.close(slot))
		}
		nf, err := e.cli.Open(name, flags, 0o644)
		if err == nil {
			e.files[slot] = &nf
		}
		return fmt.Sprintf("open %s %#x -> %d: %v", name, flags, slot, err)
	case k < 13:
		if f == nil {
			got, err := e.cli.ReadFile(name)
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
		return fmt.Sprint("truncate ", name, off, e.cli.Truncate(name, off))
	case k < 21:
		if f == nil {
			return "fsync: no handle"
		}
		return fmt.Sprint("fsync ", slot, f.Sync())
	case k < 22:
		return fmt.Sprint("unlink ", name, e.cli.Remove(name))
	default:
		attr, err := e.cli.Stat(name)
		return fmt.Sprint("stat ", name, attr.Size, err)
	}
}

func (e *directReadEnv) close(slot int) error {
	err := e.files[slot].Close()
	e.files[slot] = nil
	return err
}

// finish closes every handle, syncs both caches and renders what the host
// filesystem itself ends up holding.
func (e *directReadEnv) finish(t *testing.T) string {
	out := ""
	for slot, f := range e.files {
		if f != nil {
			out += fmt.Sprint("close ", slot, e.close(slot), "; ")
		}
	}
	if e.c != nil {
		defer e.c.Close()
		if err := e.c.Kernel.SyncFS(); err != nil {
			t.Fatal(err)
		}
		if err := e.c.HostPC.SyncFS(); err != nil {
			t.Fatal(err)
		}
	}
	host := vfs.NewClient(e.host, vfs.Root())
	for _, name := range directReadNames {
		got, err := host.ReadFile(name)
		out += fmt.Sprintf("%s: %d %08x %v; ", name, len(got), crc32.ChecksumIEEE(got), err)
	}
	return out
}

// TestDirectReadDifferential is the oracle for MountOptions.DirectRead:
// the same seeded script — reads through read-only handles interleaved
// with writes, appends, truncates, fsyncs and unlinks through the handles
// open beside them, on files larger than the memory the two caches share —
// runs on the default mount, on the default with the rule switched off, on
// the default with a write-through kernel cache (whose O_APPEND writes pass
// it) and on bare memfs. Where the host keeps a copy may change what a read
// costs, never what it returns: every byte, size and errno, and what the
// host filesystem holds after a sync, must be equal.
func TestDirectReadDifferential(t *testing.T) {
	seeds := uint64(500)
	if testing.Short() || raceBuild() {
		seeds = 60 // as TestNoSecDifferential: the detector is after interleavings, not scripts
	}
	on, off, through := fuse.DefaultMountOptions(), fuse.DefaultMountOptions(), fuse.DefaultMountOptions()
	on.DirectRead, off.DirectRead = true, false
	through.WritebackCache = false
	sides := []struct {
		name  string
		mount *fuse.MountOptions
	}{{"with DirectRead", &on}, {"without", &off}, {"write-through", &through}, {"bare memfs", nil}}
	for seed := uint64(1); seed <= seeds; seed++ {
		envs, rngs := make([]*directReadEnv, len(sides)), make([]*sim.Rand, len(sides))
		for k, s := range sides {
			envs[k], rngs[k] = newDirectReadEnv(t, s.mount, seed), sim.NewRand(seed)
		}
		for i := 0; i <= 80; i++ {
			step := func(k int) string {
				if i == 80 {
					return envs[k].finish(t) // the final host state
				}
				return envs[k].step(rngs[k])
			}
			a := step(0)
			for k := 1; k < len(sides); k++ {
				if b := step(k); a != b {
					t.Fatalf("seed %d op %d:\n %s: %s\n %s: %s", seed, i, sides[0].name, a, sides[k].name, b)
				}
			}
		}
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
