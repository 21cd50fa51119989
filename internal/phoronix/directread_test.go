package phoronix

import (
	"fmt"
	"sync"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// hostTraffic records what CntrFS asks of the host page cache. It is a
// vfs.FS between the two, not an interceptor: those are not shown open
// flags. Whatever a real O_DIRECT descriptor would refuse is kept as a
// violation.
type hostTraffic struct {
	vfs.FS
	mu          sync.Mutex
	direct      map[vfs.Handle]vfs.Ino // live handles opened O_DIRECT
	directOpens int
	directReads int
	violations  []string
}

func (h *hostTraffic) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	fh, err := h.FS.Open(op, ino, flags)
	if err != nil || flags&vfs.ODirect == 0 {
		return fh, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.directOpens++
	h.direct[fh] = ino
	if flags != vfs.ORdonly|vfs.ODirect {
		h.violations = append(h.violations, fmt.Sprintf("O_DIRECT on an open with flags %#x", flags))
	}
	return fh, nil
}

func (h *hostTraffic) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	if flags&vfs.ODirect != 0 {
		h.mu.Lock()
		h.violations = append(h.violations, fmt.Sprintf("O_DIRECT on a create with flags %#x", flags))
		h.mu.Unlock()
	}
	return h.FS.Create(op, parent, name, mode, flags)
}

func (h *hostTraffic) Read(op *vfs.Op, fh vfs.Handle, off int64, dest []byte) (int, error) {
	h.mu.Lock()
	ino, direct := h.direct[fh]
	h.mu.Unlock()
	if direct {
		// From a page boundary, a whole number of pages or up to the end
		// of the file.
		ok := off%pagecache.PageSize == 0
		if ok && len(dest)%pagecache.PageSize != 0 {
			attr, err := h.FS.Getattr(vfs.RootOp(), ino)
			ok = err == nil && off+int64(len(dest)) == attr.Size
		}
		h.mu.Lock()
		h.directReads++
		if !ok {
			h.violations = append(h.violations, fmt.Sprintf("direct read of %d bytes at %d", len(dest), off))
		}
		h.mu.Unlock()
	}
	return h.FS.Read(op, fh, off, dest)
}

func (h *hostTraffic) Release(op *vfs.Op, fh vfs.Handle) error {
	h.mu.Lock()
	delete(h.direct, fh)
	h.mu.Unlock()
	return h.FS.Release(op, fh)
}

// TestDirectReadHostTraffic verifies, on the suite rows the repository's
// benchmark calls read and mixed, what DirectRead assumes of its own
// traffic: O_DIRECT reaches the host only on plain O_RDONLY opens, every
// read through such a handle is one a real O_DIRECT descriptor would
// take — page-aligned, whole pages or up to end of file, which is what
// pagecache's fill promises — and without KeepCache no open carries it.
// The stack is NewCntr's, rebuilt by hand to put the recorder in (the
// mount's cache has a budget of its own here; nothing asserted depends on
// evictions).
func TestDirectReadHostTraffic(t *testing.T) {
	run := func(t *testing.T, mount fuse.MountOptions, rows ...string) *hostTraffic {
		rec := &hostTraffic{direct: make(map[vfs.Handle]vfs.Ino)}
		for _, row := range rows {
			cfg := stackConfig()
			cfg.Mount = mount
			clock, model := sim.NewClock(), sim.DefaultCostModel()
			disk := sim.NewDisk(clock, model)
			host := memfs.New(memfs.Options{})
			rec.FS = pagecache.New(host, clock, model, pagecache.Options{
				KeepCache: true, Writeback: true, DirtyWindow: cfg.DirtyWindowNative,
				MaxWriteSize: 1 << 20, ReadAhead: cfg.ReadAhead, ChargeDisk: disk,
				Budget: pagecache.NewMemBudget(cfg.RAM),
			})
			m := stack.NewMount(rec, clock, model, cfg)
			_, _, err := RunOn(findBench(row), m.Kernel, host, clock, model, disk, 42)
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range rec.violations {
			t.Error(v)
		}
		return rec
	}
	t.Run("read and mixed rows", func(t *testing.T) {
		rows := []string{"IOzone: Read", "Threaded I/O: Read"}
		if !testing.Short() {
			rows = append(rows, "Apachebench", "Compilebench: Compile", "Dbench: 1 Clients", "Dbench: 12 Clients",
				"Dbench: 48 Clients", "Dbench: 128 Clients", "FS-Mark", "Gzip", "Unpack Tarball")
		}
		rec := run(t, fuse.DefaultMountOptions(), rows...)
		t.Logf("%d direct opens, %d direct reads", rec.directOpens, rec.directReads)
		if rec.directOpens == 0 || rec.directReads == 0 {
			t.Fatalf("%d direct opens and %d direct reads reached the host: nothing was verified", rec.directOpens, rec.directReads)
		}
	})
	t.Run("inert without KeepCache", func(t *testing.T) {
		mount := fuse.DefaultMountOptions()
		mount.KeepCache = false
		if rec := run(t, mount, "Threaded I/O: Read"); rec.directOpens != 0 {
			t.Fatalf("%d opens reached the host O_DIRECT on a mount without FOPEN_KEEP_CACHE", rec.directOpens)
		}
	})
}
