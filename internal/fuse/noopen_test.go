package fuse

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

// TestZeroMessageOpenWire: what an open and its close put on the wire
// (OPEN, RELEASE and SETATTR frames) and how many opens reach the
// filesystem under the server. On a NoOpen mount the first open of a
// regular file is the one OPEN, answered ENOSYS; from then on a regular
// file is opened and closed without a message, its data frames carry fh 0
// and are served through the server's own descriptor, and an O_TRUNC open
// is one SETATTR. A FIFO, a directory and a CREATE are what they always
// were, and so is every open on a mount where the rule is off or inert:
// without KeepCache, WritebackCache or a dentry cache (EntryTimeout 0).
func TestZeroMessageOpenWire(t *testing.T) {
	op := vfs.RootOp()
	off, noKeep, noWriteback, noEntries := DefaultMountOptions(), DefaultMountOptions(), DefaultMountOptions(), DefaultMountOptions()
	off.NoOpen = false
	noKeep.KeepCache = false
	noWriteback.WritebackCache = false
	noEntries.EntryTimeout = 0
	type wire struct{ open, release, setattr, fsOpens int64 }
	openClose := func(name string, flags vfs.OpenFlags) func(*nosecEnv, map[string]vfs.Ino) error {
		return func(e *nosecEnv, ino map[string]vfs.Ino) error {
			h, err := e.conn.Open(op, ino[name], flags)
			if err != nil {
				return err
			}
			return e.conn.Release(op, h)
		}
	}
	rows := []struct {
		name  string
		opts  MountOptions
		first bool // the row's open is the mount's first
		do    func(e *nosecEnv, ino map[string]vfs.Ino) error
		want  wire
	}{
		{"first open", DefaultMountOptions(), true, func(e *nosecEnv, ino map[string]vfs.Ino) error {
			h, err := e.conn.Open(op, ino["f"], vfs.ORdonly)
			if err != nil || h&localHandle == 0 || !e.conn.noOpen.Load() {
				return fmt.Errorf("handle %#x, %v, no_open %v; want a handle of the connection's own", h, err, e.conn.noOpen.Load())
			}
			return e.conn.Release(op, h)
		}, wire{open: 1}},
		{"O_RDONLY", DefaultMountOptions(), false, openClose("f", vfs.ORdonly), wire{}},
		{"O_WRONLY write", DefaultMountOptions(), false, func(e *nosecEnv, ino map[string]vfs.Ino) error {
			h, err := e.conn.Open(op, ino["f"], vfs.OWronly)
			if err != nil {
				return err
			}
			if n, err := e.conn.Write(op, h, 0, []byte("HELLO")); n != 5 || err != nil {
				return fmt.Errorf("write: %d, %v", n, err)
			}
			e.srv.filesMu.Lock()
			wr := e.srv.files[ino["f"]].wr
			e.srv.filesMu.Unlock()
			if wr == 0 || vfs.Handle(e.spy.wrote.Load()) != wr {
				return fmt.Errorf("WRITE served through handle %d, want the inode's descriptor %d (fh 0)", e.spy.wrote.Load(), wr)
			}
			if err := e.conn.Release(op, h); err != nil {
				return err
			}
			got, err := vfs.NewClient(e.host, vfs.Root()).ReadFile("/f")
			if string(got) != "HELLO" || err != nil {
				return fmt.Errorf("host holds %q, %v", got, err)
			}
			return nil
		}, wire{fsOpens: 1}},
		{"O_TRUNC", DefaultMountOptions(), false, func(e *nosecEnv, ino map[string]vfs.Ino) error {
			if err := openClose("f", vfs.OWronly|vfs.OTrunc)(e, ino); err != nil {
				return err
			}
			if got, err := vfs.NewClient(e.host, vfs.Root()).ReadFile("/f"); len(got) != 0 || err != nil {
				return fmt.Errorf("host holds %q, %v after O_TRUNC", got, err)
			}
			return nil
		}, wire{setattr: 1}},
		{"FIFO", DefaultMountOptions(), false, openClose("p", vfs.ORdonly|vfs.ONonblock), wire{open: 1, release: 1, fsOpens: 1}},
		{"directory", DefaultMountOptions(), false, openClose("d", vfs.ORdonly), wire{open: 1, release: 1, fsOpens: 1}},
		{"CREATE", DefaultMountOptions(), false, func(e *nosecEnv, _ map[string]vfs.Ino) error {
			_, h, err := e.conn.Create(op, vfs.RootIno, "new", 0o644, vfs.ORdwr)
			if err != nil {
				return err
			}
			return e.conn.Release(op, h)
		}, wire{release: 1}},
		{"NoOpen off", off, false, openClose("f", vfs.ORdonly), wire{open: 1, release: 1, fsOpens: 1}},
		{"KeepCache off", noKeep, false, openClose("f", vfs.ORdonly), wire{open: 1, release: 1, fsOpens: 1}},
		{"WritebackCache off", noWriteback, false, openClose("f", vfs.ORdonly), wire{open: 1, release: 1, fsOpens: 1}},
		{"EntryTimeout 0", noEntries, false, openClose("f", vfs.ORdonly), wire{open: 1, release: 1, fsOpens: 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := nosecMount(t, row.opts)
			host := vfs.NewClient(e.host, vfs.Root())
			if err := host.WriteFile("/f", []byte("hello"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := host.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := e.host.Mknod(op, vfs.RootIno, "p", vfs.TypeFIFO, 0o644, 0); err != nil {
				t.Fatal(err)
			}
			ino := map[string]vfs.Ino{}
			for _, name := range []string{"f", "p", "d"} {
				attr, err := e.conn.Lookup(op, vfs.RootIno, name)
				if err != nil {
					t.Fatal(err)
				}
				ino[name] = attr.Ino
			}
			if !row.first {
				if err := openClose("f", vfs.ORdonly)(e, ino); err != nil {
					t.Fatal(err)
				}
			}
			count := func() wire {
				f := e.conn.Stats().Frames
				return wire{f[OpOpen], f[OpRelease], f[OpSetattr], e.spy.opens.Load()}
			}
			before := count()
			if err := row.do(e, ino); err != nil {
				t.Fatal(err)
			}
			after := count()
			got := wire{after.open - before.open, after.release - before.release,
				after.setattr - before.setattr, after.fsOpens - before.fsOpens}
			if got != row.want {
				t.Fatalf("OPEN %d, RELEASE %d, SETATTR %d, filesystem opens %d; want %d, %d, %d, %d",
					got.open, got.release, got.setattr, got.fsOpens,
					row.want.open, row.want.release, row.want.setattr, row.want.fsOpens)
			}
		})
	}
}

// TestZeroMessageOpenErrnoDifferential: an open decided by the connection
// fails exactly where the server's would. Every caller (root, uid 1000
// without capabilities, uid 1000 with CAP_DAC_OVERRIDE, the file's owner)
// opens every file (0644 and 0600 owned by root, 0200 owned by uid 1000,
// 0000 owned by uid 2000) in every access mode, with and without O_TRUNC,
// then reads a byte, writes one, punches a hole in the next, fsyncs and
// closes, through the kernel-side page cache: every errno, and what the
// host holds at the end, must be the same with NoOpen on and off. A file
// opened read-only takes no fallocate, whatever the caller may write.
func TestZeroMessageOpenErrnoDifferential(t *testing.T) {
	files := []struct {
		name string
		mode vfs.Mode
		uid  uint32
	}{{"/0644", 0o644, 0}, {"/0600", 0o600, 0}, {"/0200", 0o200, 1000}, {"/0000", 0, 2000}}
	dac := vfs.User(1000, 1000)
	dac.Caps = vfs.NewCapSet(vfs.CapDacOverride)
	callers := []struct {
		name string
		cred func(owner uint32) *vfs.Cred
	}{
		{"root", func(uint32) *vfs.Cred { return vfs.Root() }},
		{"uid 1000", func(uint32) *vfs.Cred { return vfs.User(1000, 1000) }},
		{"uid 1000 with CAP_DAC_OVERRIDE", func(uint32) *vfs.Cred { return dac }},
		{"owner", func(owner uint32) *vfs.Cred {
			if owner == 0 {
				return vfs.Root()
			}
			return vfs.User(owner, owner)
		}},
	}
	run := func(opts MountOptions) []string {
		e := nosecMount(t, opts)
		host := vfs.NewClient(e.host, vfs.Root())
		for _, f := range files {
			if err := host.WriteFile(f.name, []byte("data"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := host.Chown(f.name, f.uid, f.uid); err != nil {
				t.Fatal(err)
			}
			if err := host.Chmod(f.name, f.mode); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		for _, c := range callers {
			for _, f := range files {
				cli := vfs.NewClient(e.top, c.cred(f.uid))
				for _, access := range []vfs.OpenFlags{vfs.ORdonly, vfs.OWronly, vfs.ORdwr} {
					for _, trunc := range []vfs.OpenFlags{0, vfs.OTrunc} {
						line := fmt.Sprintf("%s %s %#x:", c.name, f.name, access|trunc)
						h, err := cli.Open(f.name, access|trunc, 0)
						line += fmt.Sprintf(" open %v", err)
						if err == nil {
							_, rerr := h.ReadAt(make([]byte, 1), 0)
							_, werr := h.WriteAt([]byte("w"), 0)
							ferr := e.top.Fallocate(cli.Op, h.Handle(), vfs.FallocPunchHole|vfs.FallocKeepSize, 1, 1)
							line += fmt.Sprintf(", read %v, write %v, fallocate %v, fsync %v, close %v", rerr, werr, ferr, h.Sync(), h.Close())
						}
						out = append(out, line)
					}
				}
			}
		}
		for _, f := range files {
			got, err := host.ReadFile(f.name)
			out = append(out, fmt.Sprintf("host %s: %q %v", f.name, got, err))
		}
		return out
	}
	off := DefaultMountOptions()
	off.NoOpen = false
	on, want := run(DefaultMountOptions()), run(off)
	denied, opened := 0, 0
	for i := range want {
		if on[i] != want[i] {
			t.Errorf("NoOpen on:  %s\n        off: %s", on[i], want[i])
		}
		switch {
		case strings.Contains(want[i], "open permission denied"):
			denied++
		case strings.Contains(want[i], "open <nil>"):
			opened++
		}
	}
	if denied == 0 || opened == 0 {
		t.Fatalf("%d opens denied, %d made: the table tests nothing", denied, opened)
	}
}

// flushForgets sends the forgets c has batched so far in one
// FUSE_BATCH_FORGET frame, as a full batch or the unmount would.
func flushForgets(c *Conn) {
	c.mu.Lock()
	batch := c.forgets
	c.forgets = nil
	c.mu.Unlock()
	if len(batch) > 0 {
		c.sendForgetBatch(batch)
	}
}

// TestZeroMessageOpenDescriptorsClose: a host descriptor the server opened
// for fh-0 frames outlives neither its inode's FORGET nor the unmount, and
// every Open the server made is matched by a Release. A file unlinked
// while it is open stays readable until its last close, whose forget then
// closes its descriptor (Conn.holdOpen).
func TestZeroMessageOpenDescriptorsClose(t *testing.T) {
	op := vfs.RootOp()
	opts := DefaultMountOptions()
	opts.ServerThreads = 1 // a GETATTR is served after every frame queued before it
	host := memfs.New(memfs.Options{})
	spy := &wireSpy{FS: host}
	conn, srv := Mount(spy, sim.NewClock(), sim.DefaultCostModel(), opts)
	for _, name := range []string{"/a", "/b"} {
		if err := vfs.NewClient(host, vfs.Root()).WriteFile(name, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) (vfs.Ino, vfs.Handle) {
		attr, err := conn.Lookup(op, vfs.RootIno, name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := conn.Open(op, attr.Ino, vfs.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		return attr.Ino, h
	}
	read := func(h vfs.Handle, want string) {
		buf := make([]byte, 8)
		if n, err := conn.Read(op, h, 0, buf); string(buf[:n]) != want || err != nil {
			t.Fatalf("read %q, %v", buf[:n], err)
		}
	}
	descriptors := func() int {
		if _, err := conn.getattrWire(op, vfs.RootIno); err != nil { // the frames before it are served
			t.Fatal(err)
		}
		srv.filesMu.Lock()
		defer srv.filesMu.Unlock()
		n := 0
		for _, f := range srv.files {
			n += len(f.retired)
			if f.rd != 0 {
				n++
			}
			if f.wr != 0 {
				n++
			}
		}
		return n
	}

	a, h := open("a")
	read(h, "data")
	if _, err := conn.Write(op, h, 0, []byte("DATA")); err != nil {
		t.Fatal(err)
	}
	conn.Release(op, h)
	if n := descriptors(); n != 2 {
		t.Fatalf("after a read and a write, %d descriptors, want the read side (retired) and the write side", n)
	}
	conn.Forget(op, a, 1) // withheld while the attributes are cached
	conn.invalidateAttr(a)
	flushForgets(conn)
	if n := descriptors(); n != 0 {
		t.Fatalf("after the FORGET, %d descriptors open", n)
	}

	b, h := open("b")
	if err := conn.Unlink(op, vfs.RootIno, "b"); err != nil {
		t.Fatal(err)
	}
	read(h, "data")
	conn.Forget(op, b, 1) // withheld while the file is open
	if n := descriptors(); n != 1 {
		t.Fatalf("the unlinked open file has %d descriptors, want 1", n)
	}
	conn.Release(op, h)
	flushForgets(conn)
	if n := descriptors(); n != 0 {
		t.Fatalf("after the unlinked file's last close, %d descriptors open", n)
	}

	_, h = open("a")
	read(h, "DATA")
	conn.Unmount()
	srv.Wait()
	if n := len(srv.files); n != 0 {
		t.Fatalf("after the unmount, descriptors of %d inodes open", n)
	}
	if o, r := spy.opens.Load(), spy.releases.Load(); o != r || o != 4 {
		t.Fatalf("the server made %d opens and %d releases, want 4 and 4", o, r)
	}
}

// TestZeroMessageOpenConcurrentFrames: fh-0 frames for the same inodes
// served by four threads at once open one read-side descriptor per inode
// (a thread that loses the race to open it closes its own) and, since an
// fsync opens no write side, nothing else; every read returns the file,
// and the unmount closes all of it. Run it with -race.
func TestZeroMessageOpenConcurrentFrames(t *testing.T) {
	op := vfs.RootOp()
	host := memfs.New(memfs.Options{})
	spy := &wireSpy{FS: host}
	conn, srv := Mount(spy, sim.NewClock(), sim.DefaultCostModel(), DefaultMountOptions())
	names := []string{"a", "b"}
	inos := make([]vfs.Ino, len(names))
	for i, name := range names {
		if err := vfs.NewClient(host, vfs.Root()).WriteFile("/"+name, []byte(name+"-data"), 0o644); err != nil {
			t.Fatal(err)
		}
		attr, err := conn.Lookup(op, vfs.RootIno, name)
		if err != nil {
			t.Fatal(err)
		}
		inos[i] = attr.Ino
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(names)
				h, err := conn.Open(op, inos[k], vfs.ORdwr)
				if err != nil {
					errs <- err
					return
				}
				buf := make([]byte, 16)
				n, err := conn.Read(op, h, 0, buf)
				if want := names[k] + "-data"; string(buf[:n]) != want || err != nil {
					errs <- fmt.Errorf("read %q, %v; want %q", buf[:n], err, want)
				}
				if err := conn.Fsync(op, h, false); err != nil {
					errs <- err
				}
				conn.Release(op, h)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.filesMu.Lock()
	for ino, f := range srv.files {
		if f.rd == 0 || f.wr != 0 || len(f.retired) != 0 {
			t.Errorf("inode %d: descriptors %+v, want the read side alone", ino, f)
		}
	}
	srv.filesMu.Unlock()
	conn.Unmount()
	srv.Wait()
	if o, r := spy.opens.Load(), spy.releases.Load(); o != r || len(srv.files) != 0 {
		t.Fatalf("the server made %d opens and %d releases, %d inodes still open", o, r, len(srv.files))
	}
}

// TestZeroMessageOpenFollowsCopyUp: on a union filesystem, a file opened
// read-only and read (the server's read side, on the lower layer) and then
// written (the write side's open copies it up) reads back what was
// written, and so it does after a truncate. The connection here has no
// page cache above it, so every read is a READ frame, as after an
// eviction. An fsync of a file opened read-only copies nothing up.
func TestZeroMessageOpenFollowsCopyUp(t *testing.T) {
	op := vfs.RootOp()
	lower := memfs.New(memfs.Options{})
	for _, name := range []string{"/f", "/g"} {
		if err := vfs.NewClient(lower, vfs.Root()).WriteFile(name, []byte("lower-data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	union := unionfs.NewWith(unionfs.Options{}, lower)
	conn, srv := Mount(union, sim.NewClock(), sim.DefaultCostModel(), DefaultMountOptions())
	defer func() {
		conn.Unmount()
		srv.Wait()
	}()
	ino := map[string]vfs.Ino{}
	for _, name := range []string{"f", "g"} {
		attr, err := conn.Lookup(op, vfs.RootIno, name)
		if err != nil {
			t.Fatal(err)
		}
		ino[name] = attr.Ino
	}
	open := func(name string, flags vfs.OpenFlags) vfs.Handle {
		h, err := conn.Open(op, ino[name], flags)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	readBack := func(name, want string) {
		t.Helper()
		h := open(name, vfs.ORdonly)
		defer conn.Release(op, h)
		buf := make([]byte, 16)
		if n, err := conn.Read(op, h, 0, buf); string(buf[:n]) != want || err != nil {
			t.Fatalf("%s reads %q, %v; want %q", name, buf[:n], err, want)
		}
	}
	// The union's statfs is its upper layer's: a copy-up adds an inode.
	upperInodes := func() uint64 {
		st, err := union.Statfs(op, vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		return st.Files
	}

	inodes := upperInodes()
	h := open("f", vfs.ORdonly)
	if err := conn.Fsync(op, h, false); err != nil {
		t.Fatal(err)
	}
	conn.Release(op, h)
	if upperInodes() != inodes {
		t.Fatal("an fsync of a file opened read-only copied it up")
	}
	readBack("f", "lower-data")
	h = open("f", vfs.OWronly)
	if _, err := conn.Write(op, h, 0, []byte("UPPER")); err != nil {
		t.Fatal(err)
	}
	conn.Release(op, h)
	readBack("f", "UPPER-data")
	if upperInodes() == inodes {
		t.Fatal("a write did not copy the file up")
	}

	readBack("g", "lower-data")
	if _, err := conn.Setattr(op, ino["g"], vfs.SetSize, vfs.Attr{Size: 5}); err != nil {
		t.Fatal(err)
	}
	readBack("g", "lower")
}
