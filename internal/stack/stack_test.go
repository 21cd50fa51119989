package stack

import (
	"bytes"
	"testing"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/vfs"
)

func TestNativeStackEndToEnd(t *testing.T) {
	n := NewNative(Config{})
	cli := vfs.NewClient(n.Top, vfs.Root())
	data := bytes.Repeat([]byte("native"), 10000)
	if err := cli.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("native stack: %d bytes, %v", len(got), err)
	}
	if n.Clock.Now() == 0 {
		t.Fatal("virtual time must advance")
	}
}

func TestCntrStackEndToEnd(t *testing.T) {
	c := NewCntr(Config{})
	defer c.Close()
	cli := vfs.NewClient(c.Top, vfs.Root())
	data := bytes.Repeat([]byte("cntr"), 10000)
	if err := cli.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cntr stack: %d bytes, %v", len(got), err)
	}
	// The data must ultimately live in the host filesystem.
	hostCli := vfs.NewClient(c.HostPC, vfs.Root())
	got, err = hostCli.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("host view: %d bytes, %v", len(got), err)
	}
	if c.Conn.Stats().Requests == 0 {
		t.Fatal("requests should have crossed the FUSE boundary")
	}
}

func TestCntrSlowerThanNativeForColdLookups(t *testing.T) {
	// Metadata scans with cold caches are the paper's worst case for
	// CntrFS (compilebench read: 13.3x). The stack must show a clear gap.
	prepare := func(top vfs.FS) {
		cli := vfs.NewClient(top, vfs.Root())
		for i := 0; i < 50; i++ {
			name := "/dir" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			cli.Mkdir(name, 0o755)
			cli.WriteFile(name+"/file", []byte("x"), 0o644)
		}
	}
	scan := func(top vfs.FS) {
		cli := vfs.NewClient(top, vfs.Root())
		ents, _ := cli.ReadDir("/")
		for _, e := range ents {
			cli.Stat("/" + e.Name)
			cli.ReadFile("/" + e.Name + "/file")
		}
	}

	n := NewNative(Config{})
	prepare(n.Top)
	start := n.Clock.Now()
	scan(n.Top)
	nativeTime := n.Clock.Now() - start

	mount := fuse.DefaultMountOptions()
	mount.EntryTimeout = 0 // cold dentry cache, like a fresh tree scan
	mount.AttrTimeout = 0
	c := NewCntr(Config{Mount: mount})
	defer c.Close()
	prepare(c.Top)
	start = c.Clock.Now()
	scan(c.Top)
	cntrTime := c.Clock.Now() - start

	ratio := float64(cntrTime) / float64(nativeTime)
	if ratio < 2 {
		t.Fatalf("cold metadata scan ratio = %.2f, want >= 2 (paper: up to 13.3x)", ratio)
	}
}

func TestCntrWritebackCanBeatNativeForUnsyncedWrites(t *testing.T) {
	// FIO-like pattern: many medium random writes, no fsync. The deeper
	// FUSE writeback window batches disk traffic better (paper: 0.2x).
	workload := func(top vfs.FS) {
		cli := vfs.NewClient(top, vfs.Root())
		f, err := cli.Open("/data", vfs.ORdwr|vfs.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 140<<10)
		for i := 0; i < 60; i++ {
			off := int64(i%7) * (1 << 20)
			if _, err := f.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := NewNative(Config{})
	start := n.Clock.Now()
	workload(n.Top)
	nativeTime := n.Clock.Now() - start

	c := NewCntr(Config{})
	defer c.Close()
	start = c.Clock.Now()
	workload(c.Top)
	cntrTime := c.Clock.Now() - start

	if float64(cntrTime) > 0.9*float64(nativeTime) {
		t.Fatalf("unsynced write-heavy load: cntr %v should beat native %v", cntrTime, nativeTime)
	}
}

// TestSharedBudgetDoubleBuffers: a file read through the mount is held in
// the kernel-side cache and, on the paper's configuration, a second time
// in the host's — both out of the one budget. The default mount reads past
// the host's cache and holds it once.
func TestSharedBudgetDoubleBuffers(t *testing.T) {
	const size, readAhead = 1 << 20, 128 << 10
	used := func(mount fuse.MountOptions, ram int64) int64 {
		c := NewCntr(Config{RAM: ram, Mount: mount, ReadAhead: readAhead})
		defer c.Close()
		if err := vfs.NewClient(c.Host, vfs.Root()).WriteFile("/f", make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := vfs.NewClient(c.Top, vfs.Root()).ReadFile("/f"); err != nil || len(got) != size {
			t.Fatalf("read through the mount: %d bytes, %v", len(got), err)
		}
		if c.Budget.Used() > ram {
			t.Fatalf("budget of %d exceeded: %d", ram, c.Budget.Used())
		}
		return c.Budget.Used()
	}
	if twice := used(fuse.PaperMountOptions(), 16<<20); twice != 2*size {
		t.Fatalf("the paper's configuration holds %d bytes of a %d-byte file, want it twice", twice, size)
	}
	if once := used(fuse.DefaultMountOptions(), 16<<20); once < size || once > size+readAhead {
		t.Fatalf("the default mount holds %d bytes of a %d-byte file, want it once", once, size)
	}
	// Neither may overdraw a budget the file does not fit.
	used(fuse.PaperMountOptions(), size)
	used(fuse.DefaultMountOptions(), size)
}

// TestReadBackSurvivesBudgetPressure drives the stack past its memory: the
// FUSE-side cache fills the whole 16 MiB budget with dirty pages, so every
// eviction flush reaches a host-side cache with no room and takes its
// write-through fallback. The host-side cache must still learn the file's
// size: a fallback that skips the size bookkeeping answers the read-back
// with the right length of zeros. On the paper's configuration the
// read-back goes through the host-side cache (the Figure 2 double-buffered
// shape); on the default it goes past it.
func TestReadBackSurvivesBudgetPressure(t *testing.T) {
	for name, mount := range map[string]fuse.MountOptions{
		"paper": fuse.PaperMountOptions(), "default": fuse.DefaultMountOptions(),
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCntr(Config{RAM: 16 << 20, DirtyWindowFuse: 64 << 20, Mount: mount})
			defer c.Close()
			cli := vfs.NewClient(c.Top, vfs.Root())
			const size, chunk = 32 << 20, 64 << 10
			pattern := func(i int) []byte {
				return bytes.Repeat([]byte{byte(i), byte(i >> 8), 'p', 'r', 'e', 's', 's', '!'}, chunk/8)
			}
			f, err := cli.Create("/big", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < size/chunk; i++ {
				if _, err := f.Write(pattern(i)); err != nil {
					t.Fatalf("write chunk %d: %v", i, err)
				}
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if f, err = cli.Open("/big", vfs.ORdonly, 0); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			before := c.HostPC.Stats()
			buf := make([]byte, chunk)
			for i := 0; i < size/chunk; i++ {
				if n, err := f.Read(buf); err != nil || n != chunk {
					t.Fatalf("read chunk %d: %d bytes, %v", i, n, err)
				}
				if !bytes.Equal(buf, pattern(i)) {
					t.Fatalf("chunk %d (offset %d) read back wrong; host cache stats %+v", i, i*chunk, c.HostPC.Stats())
				}
			}
			s := c.HostPC.Stats()
			lookups := s.Hits + s.Misses - before.Hits - before.Misses
			if mount.DirectRead && lookups != 0 {
				t.Fatalf("the read-back consulted the host-side cache %d times: %+v", lookups, s)
			}
			if !mount.DirectRead && lookups == 0 {
				t.Fatalf("the read-back never consulted the host-side cache: %+v", s)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}
	applyDefaults(&cfg)
	if cfg.RAM != 16<<30 || cfg.DirtyWindowFuse <= cfg.DirtyWindowNative {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Mount.MaxWrite == 0 || !cfg.Mount.KeepCache {
		t.Fatalf("mount defaults = %+v", cfg.Mount)
	}
}

// TestHardlinkDedupLookupCost is the ablation behind CntrFS's open+stat
// lookup path: mapping every backing inode to exactly one CntrFS inode
// keeps hard links one inode through the mount, and costs a cold
// metadata scan — readdir plus one stat per entry over 200 host files —
// a quarter more virtual time than handing out a fresh inode per name
// would. The scan ends on an awaited operation, so both totals are
// pinned to the nanosecond. Its readdir is the mount's first: the OPENDIR
// the server answers ENOSYS (MountOptions.NoOpendir) costs the host a
// getattr where it cost an opendir, both one syscall; each of the two
// fh-0 READDIRs opens and closes a host directory, one syscall more each
// (+3 µs); and no RELEASEDIR is enqueued (−4 µs): 1 µs less on either side.
// The listing's first page, 23 of the 200 files, is a READDIRPLUS
// (MountOptions.ReaddirPlus): their stats send no LOOKUP, and the server
// looks each up inside that one request instead, at the same cost on
// either side, so both totals fall by the same 91 385 ns.
func TestHardlinkDedupLookupCost(t *testing.T) {
	scan := func(noDedup bool) time.Duration {
		c := NewCntr(Config{NoDedupHardlinks: noDedup})
		defer c.Close()
		hostCli := vfs.NewClient(c.Host, vfs.Root())
		for i := 0; i < 200; i++ {
			name := "/f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := hostCli.WriteFile(name, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cli := vfs.NewClient(c.Top, vfs.Root())
		start := c.Clock.Now()
		ents, err := cli.ReadDir("/")
		if err != nil || len(ents) != 200 {
			t.Fatalf("readdir: %d entries, %v", len(ents), err)
		}
		for _, e := range ents {
			if _, err := cli.Stat("/" + e.Name); err != nil {
				t.Fatal(err)
			}
		}
		return c.Clock.Now() - start
	}
	if with, without := scan(false), scan(true); with != 2924833 || without != 2324833 {
		t.Fatalf("cold scan = %dns with dedup, %dns without (%.3fx), want 2924833 and 2324833 (1.258x)",
			with, without, float64(with)/float64(without))
	}
}

// TestWriteDropsFileCapabilities: the kernel removes security.capability
// on any write, whoever writes — here a non-owner with neither CAP_FSETID
// nor CAP_FOWNER — so a binary that was modified does not keep the
// privileges it was granted. Same page-cache code on both stacks.
func TestWriteDropsFileCapabilities(t *testing.T) {
	c := NewCntr(Config{})
	defer c.Close()
	for name, top := range map[string]vfs.FS{"native": NewNative(Config{}).Top, "cntr": c.Top} {
		root := vfs.NewClient(top, vfs.Root())
		if err := root.WriteFile("/bin", []byte("#!"), 0o666); err != nil {
			t.Fatal(name, err)
		}
		attr, err := root.Stat("/bin")
		if err != nil {
			t.Fatal(name, err)
		}
		caps := []byte{1, 0, 0, 2}
		if err := top.Setxattr(vfs.RootOp(), attr.Ino, vfs.XattrSecurityCapability, caps, 0); err != nil {
			t.Fatal(name, err)
		}
		if got, err := top.Getxattr(vfs.RootOp(), attr.Ino, vfs.XattrSecurityCapability); err != nil || !bytes.Equal(got, caps) {
			t.Fatalf("%s: capabilities before the write: %v, %v", name, got, err)
		}
		f, err := vfs.NewClient(top, vfs.User(1000, 1000)).Open("/bin", vfs.OWronly, 0)
		if err != nil {
			t.Fatal(name, err)
		}
		if n, err := f.WriteAt([]byte{'x'}, 0); n != 1 || err != nil {
			t.Fatalf("%s: write: %d, %v", name, n, err)
		}
		if _, err := top.Getxattr(vfs.RootOp(), attr.Ino, vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA {
			t.Fatalf("%s: capabilities after one written byte: %v, want ENODATA", name, err)
		}
		f.Close()
	}
}

// TestRenameOntoOtherLink: renaming one hard link onto another of the same
// inode leaves both names and a link count of 2, as Linux does, through
// the kernel's dentry and attribute caches on both stacks and in the
// filesystem beneath CntrFS.
func TestRenameOntoOtherLink(t *testing.T) {
	c := NewCntr(Config{})
	defer c.Close()
	for _, s := range []struct {
		name string
		top  vfs.FS
	}{{"native", NewNative(Config{}).Top}, {"cntr", c.Top}} {
		cli := vfs.NewClient(s.top, vfs.Root())
		if err := cli.WriteFile("/a", []byte("v"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cli.Link("/a", "/b"); err != nil {
			t.Fatal(err)
		}
		if err := cli.Rename("/a", "/b"); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		views := []*vfs.Client{cli}
		if s.name == "cntr" {
			views = append(views, vfs.NewClient(c.Host, vfs.Root()))
		}
		for _, v := range views {
			for _, name := range []string{"/a", "/b"} {
				if st, err := v.Stat(name); err != nil || st.Nlink != 2 {
					t.Fatalf("%s: %s after the rename: nlink %d, %v; want 2", s.name, name, st.Nlink, err)
				}
			}
		}
	}
}
