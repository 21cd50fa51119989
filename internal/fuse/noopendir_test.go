package fuse

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// TestZeroMessageOpendirWire: what listing a directory puts on the wire
// (OPENDIR, READDIR, RELEASEDIR and any other frame), and that every host
// directory the server opens it closes again. On a NoOpendir mount the
// first opendir is the one OPENDIR, answered ENOSYS; from then on a
// directory is opened and closed without a message, relisting an
// unchanged one sends nothing, and a listing after an entry change made
// through the mount — whatever the change — is two READDIRs with fh 0 (the
// entries, then the empty reply that ends them), each served through a
// host directory opened and closed within it. With the rule off or inert
// — without a dentry cache (EntryTimeout 0) — every listing is an
// OPENDIR, two READDIRs and a RELEASEDIR. Without an attribute cache
// (AttrTimeout 0) the rule holds, but the opendir's access check and the
// listing's check of the directory's mtime are a GETATTR each. Every row
// runs with ReaddirPlus off, which sends a listing's first page as a
// READDIRPLUS (TestReaddirPlusForgets).
func TestZeroMessageOpendirWire(t *testing.T) {
	op := vfs.RootOp()
	base := DefaultMountOptions()
	base.ReaddirPlus = false
	def, off, noEntries, noAttrs := base, base, base, base
	off.NoOpendir = false
	noEntries.EntryTimeout = 0
	noAttrs.AttrTimeout = 0
	type wire struct{ opendir, readdir, releasedir, other int64 }
	paper := wire{opendir: 1, readdir: 2, releasedir: 1}
	change := func(do func(e *nosecEnv) error) func(e *nosecEnv) error {
		return func(e *nosecEnv) error {
			if _, err := e.cli.ReadDir("/d"); err != nil { // the listing the change must drop
				return err
			}
			return do(e)
		}
	}
	rows := []struct {
		name    string
		opts    MountOptions
		first   bool // the row's opendir is the mount's first
		prepare func(e *nosecEnv) error
		want    wire
		names   []string // in link order: the host made sub before f
	}{
		{"first listing", def, true, nil, wire{opendir: 1, readdir: 2}, []string{"sub", "f"}},
		{"relisting", def, false, nil, wire{}, []string{"sub", "f"}},
		{"after create", def, false, change(func(e *nosecEnv) error { return e.cli.WriteFile("/d/g", nil, 0o644) }),
			wire{readdir: 2}, []string{"sub", "f", "g"}},
		{"after mkdir", def, false, change(func(e *nosecEnv) error { return e.cli.Mkdir("/d/m", 0o755) }),
			wire{readdir: 2}, []string{"sub", "f", "m"}},
		{"after mknod", def, false, change(func(e *nosecEnv) error {
			_, err := e.top.Mknod(op, e.lookup("/d"), "p", vfs.TypeFIFO, 0o644, 0)
			return err
		}), wire{readdir: 2}, []string{"sub", "f", "p"}},
		{"after symlink", def, false, change(func(e *nosecEnv) error { return e.cli.Symlink("f", "/d/l") }),
			wire{readdir: 2}, []string{"sub", "f", "l"}},
		{"after link", def, false, change(func(e *nosecEnv) error { return e.cli.Link("/d/f", "/d/h") }),
			wire{readdir: 2}, []string{"sub", "f", "h"}},
		{"after unlink", def, false, change(func(e *nosecEnv) error { return e.cli.Remove("/d/f") }),
			wire{readdir: 2}, []string{"sub"}},
		{"after rmdir", def, false, change(func(e *nosecEnv) error { return e.cli.Remove("/d/sub") }),
			wire{readdir: 2}, []string{"f"}},
		{"after rename in", def, false, change(func(e *nosecEnv) error { return e.cli.Rename("/top", "/d/top") }),
			wire{readdir: 2}, []string{"sub", "f", "top"}},
		{"after rename out", def, false, change(func(e *nosecEnv) error { return e.cli.Rename("/d/f", "/f") }),
			wire{readdir: 2}, []string{"sub"}},
		{"after a failed mkdir", def, false, change(func(e *nosecEnv) error {
			if _, err := e.top.Mkdir(op, e.lookup("/d"), "f", 0o755); vfs.ToErrno(err) != vfs.EEXIST {
				return fmt.Errorf("mkdir over an existing file: %v, want EEXIST", err)
			}
			return nil
		}), wire{readdir: 2}, []string{"sub", "f"}},
		{"NoOpendir off", off, false, nil, paper, []string{"sub", "f"}},
		{"EntryTimeout 0", noEntries, false, nil, paper, []string{"sub", "f"}},
		{"AttrTimeout 0", noAttrs, false, nil, wire{other: 2}, []string{"sub", "f"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := nosecMount(t, row.opts)
			host := vfs.NewClient(e.host, vfs.Root())
			for _, err := range []error{host.MkdirAll("/d/sub", 0o755), host.WriteFile("/d/f", nil, 0o644), host.WriteFile("/top", nil, 0o644)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if !row.first {
				if _, err := e.cli.ReadDir("/d"); err != nil {
					t.Fatal(err)
				}
			}
			if row.prepare != nil {
				if err := row.prepare(e); err != nil {
					t.Fatal(err)
				}
			}
			count := func() wire {
				st := e.conn.Stats()
				f := st.Frames
				var all int64
				for _, n := range f {
					all += n
				}
				return wire{f[OpOpendir], f[OpReaddir], f[OpReleasedir], all - f[OpOpendir] - f[OpReaddir] - f[OpReleasedir]}
			}
			dir := e.lookup("/d") // the walk's frames are not the listing's
			before := count()
			names, err := listDir(e.top, dir)
			if err != nil {
				t.Fatal(err)
			}
			after := count()
			got := wire{after.opendir - before.opendir, after.readdir - before.readdir,
				after.releasedir - before.releasedir, after.other - before.other}
			if got != row.want {
				t.Errorf("OPENDIR %d, READDIR %d, RELEASEDIR %d, other frames %d; want %d, %d, %d, %d",
					got.opendir, got.readdir, got.releasedir, got.other,
					row.want.opendir, row.want.readdir, row.want.releasedir, row.want.other)
			}
			if !slices.Equal(names, row.names) {
				t.Errorf("listed %q, want %q", names, row.names)
			}
			e.conn.Unmount()
			e.srv.Wait()
			if opened, closed := e.spy.opendirs.Load(), e.spy.closedir.Load(); opened != closed {
				t.Errorf("the server opened %d host directories and closed %d", opened, closed)
			}
		})
	}
}

// listDir lists directory ino on fs as vfs.Client.ReadDir does, and
// returns the names in it.
func listDir(fs vfs.FS, ino vfs.Ino) ([]string, error) {
	op := vfs.RootOp()
	h, err := fs.Opendir(op, ino)
	if err != nil {
		return nil, err
	}
	defer fs.Releasedir(op, h)
	var names []string
	for off := int64(0); ; {
		ents, err := fs.Readdir(op, h, off)
		if err != nil || len(ents) == 0 {
			return names, err
		}
		for _, d := range ents {
			off = d.Off
			if d.Name != "." && d.Name != ".." {
				names = append(names, d.Name)
			}
		}
	}
}

// lookup resolves path on the mount to its inode.
func (e *nosecEnv) lookup(path string) vfs.Ino {
	attr, err := e.cli.Stat(path)
	if err != nil {
		panic(err)
	}
	return attr.Ino
}

// TestZeroMessageOpendirConcurrentChanges lists a directory on two
// goroutines while two others create and remove entries in it, on four
// server threads (run it under -race): once the changes stop, a listing
// on the mount is the host's.
func TestZeroMessageOpendirConcurrentChanges(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	if err := e.cli.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	dir := e.lookup("/d")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := vfs.NewClient(e.top, vfs.Root())
			for i := 0; i < 200; i++ {
				var err error
				switch {
				case g < 2:
					_, err = listDir(e.top, dir)
				case i%2 == 0:
					err = cli.WriteFile(fmt.Sprintf("/d/%d-%d", g, i%7), nil, 0o644)
				default:
					err = cli.Remove(fmt.Sprintf("/d/%d-%d", g, (i+3)%7))
					if vfs.ToErrno(err) == vfs.ENOENT {
						err = nil
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got, err := listDir(e.top, dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := listDir(e.host, e.spyIno(t, "/d"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("the mount lists %q, the host holds %q", got, want)
	}
}

// TestZeroMessageOpendirHeldListing: a listing served from the kept one
// is the kept entries themselves (dirListing.after), not a copy, so the
// connection never writes them in place. A caller holding one across a
// change the mount only finds by the directory's mtime (made on the host,
// with AttrTimeout 0) and across one made through the mount keeps the
// entries it was given, and an append to them does not reach the kept
// listing.
func TestZeroMessageOpendirHeldListing(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ReaddirPlus = false
	opts.AttrTimeout = 0
	e := nosecMount(t, opts)
	host := vfs.NewClient(e.host, vfs.Root())
	if err := host.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/d/a", "/d/b", "/d/c"} {
		if err := host.WriteFile(f, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := e.lookup("/d")
	if _, err := listDir(e.top, dir); err != nil { // the kept listing
		t.Fatal(err)
	}
	op := vfs.RootOp()
	h, err := e.top.Opendir(op, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.top.Releasedir(op, h)
	readdirs := e.conn.Stats().Frames[OpReaddir]
	held, err := e.top.Readdir(op, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.conn.Stats().Frames[OpReaddir] - readdirs; n != 0 || len(held) != 5 {
		t.Fatalf("%d entries in %d READDIRs, want 5 from the kept listing", len(held), n)
	}
	want := slices.Clone(held)
	_ = append(held, vfs.Dirent{Name: "appended", Off: 1 << 40})
	for _, change := range []struct {
		name string
		do   func() error
	}{
		{"on the host", func() error {
			if err := host.Remove("/d/a"); err != nil {
				return err
			}
			return host.WriteFile("/d/x", nil, 0o644)
		}},
		{"through the mount", func() error { return e.cli.WriteFile("/d/y", nil, 0o644) }},
	} {
		if err := change.do(); err != nil {
			t.Fatal(err)
		}
		names, err := listDir(e.top, dir)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(names, "appended") || slices.Contains(names, "a") {
			t.Errorf("after a change %s the mount lists %q", change.name, names)
		}
		if !slices.Equal(held, want) {
			t.Fatalf("after a change %s the held listing is %v, was %v", change.name, held, want)
		}
	}
}

// unorderedFS answers every READDIR with the entries' cookies in
// decreasing order: bytes a kernel cannot seek in.
type unorderedFS struct{ vfs.FS }

func (u unorderedFS) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	ents, err := u.FS.Readdir(op, h, off)
	for i := range ents {
		ents[i].Off = int64(1000 - i)
	}
	if off != 0 {
		ents = nil // the listing ends after one reply
	}
	return ents, err
}

// TestZeroMessageOpendirUnorderedCookies: the connection keeps no listing
// whose cookies do not strictly increase, so each listing of it goes over
// the wire: a server's bad cookies cost a cache miss, never an entry out
// of the kept listing.
func TestZeroMessageOpendirUnorderedCookies(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ReaddirPlus = false
	host := memfs.New(memfs.Options{})
	hc := vfs.NewClient(host, vfs.Root())
	for _, f := range []string{"/a", "/b"} {
		if err := hc.WriteFile(f, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	conn, srv := Mount(unorderedFS{host}, sim.NewClock(), sim.DefaultCostModel(), opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	for i := 0; i < 3; i++ {
		before := conn.Stats().Frames[OpReaddir]
		names, err := listDir(conn, vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		if n := conn.Stats().Frames[OpReaddir] - before; n != 2 || !slices.Equal(names, []string{"a", "b"}) {
			t.Fatalf("listing %d: %q in %d READDIRs, want [a b] in 2", i, names, n)
		}
	}
}

// spyIno resolves path on the host filesystem under the server.
func (e *nosecEnv) spyIno(t *testing.T, path string) vfs.Ino {
	attr, err := vfs.NewClient(e.host, vfs.Root()).Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return attr.Ino
}

// TestZeroMessageOpendirDeadHandle: a directory removed while a handle
// the connection made is open on it reads ENOENT through that handle
// without a frame (iterate_dir's IS_DEADDIR check), and its last close
// leaves nothing of it behind in the connection.
func TestZeroMessageOpendirDeadHandle(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	op := vfs.RootOp()
	if err := e.cli.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	sub := e.lookup("/d/sub")
	h, err := e.top.Opendir(op, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.top.Readdir(op, h, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.Remove("/d/sub"); err != nil {
		t.Fatal(err)
	}
	before := e.conn.Stats().Requests
	for _, off := range []int64{0, 1} {
		if ents, err := e.top.Readdir(op, h, off); vfs.ToErrno(err) != vfs.ENOENT {
			t.Errorf("readdir at %d of the removed directory: %v, %v; want ENOENT", off, ents, err)
		}
	}
	if sent := e.conn.Stats().Requests - before; sent != 0 {
		t.Errorf("readdir of the removed directory sent %d requests, want none", sent)
	}
	if err := e.top.Releasedir(op, h); err != nil {
		t.Fatal(err)
	}
	e.conn.mu.Lock()
	_, kept := e.conn.dirs[sub]
	e.conn.mu.Unlock()
	if kept {
		t.Error("the removed directory's listing outlived its last close")
	}
}
