package fuse

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// wireSpy sits under the server: every GETXATTR, GETATTR or LOOKUP frame
// that crosses the wire is one Getxattr, Getattr or Lookup call here,
// every FLUSH the server passes on one Flush call, and every OPEN, RELEASE
// and SETATTR it serves one Open, Release and Setattr call (the server's
// own host descriptors, MountOptions.NoOpen, are Opens and Releases too).
// Every directory the server opens on the host, for an OPENDIR or within
// an fh-0 READDIR (MountOptions.NoOpendir), is one Opendir call here, and
// every one it closes one Releasedir. wrote is the handle of the last
// Write. hold, when set, keeps a GETXATTR or CREATE answer back —
// computed, not yet replied — until it is closed. flushErr, when set, is
// what the nth Flush returns.
type wireSpy struct {
	vfs.FS
	gets     atomic.Int64
	getattrs atomic.Int64
	lookups  atomic.Int64
	flushes  atomic.Int64
	opens    atomic.Int64
	releases atomic.Int64
	setattrs atomic.Int64
	opendirs atomic.Int64
	closedir atomic.Int64
	wrote    atomic.Uint64
	flushErr func(n int64) error
	hold     chan struct{}
	holding  chan struct{}
}

func (s *wireSpy) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	s.opens.Add(1)
	return s.FS.Open(op, ino, flags)
}

func (s *wireSpy) Release(op *vfs.Op, h vfs.Handle) error {
	s.releases.Add(1)
	return s.FS.Release(op, h)
}

func (s *wireSpy) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	s.opendirs.Add(1)
	return s.FS.Opendir(op, ino)
}

func (s *wireSpy) Releasedir(op *vfs.Op, h vfs.Handle) error {
	s.closedir.Add(1)
	return s.FS.Releasedir(op, h)
}

func (s *wireSpy) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	s.setattrs.Add(1)
	return s.FS.Setattr(op, ino, mask, attr)
}

func (s *wireSpy) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	s.wrote.Store(uint64(h))
	return s.FS.Write(op, h, off, data)
}

func (s *wireSpy) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	s.getattrs.Add(1)
	return s.FS.Getattr(op, ino)
}

func (s *wireSpy) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	s.lookups.Add(1)
	return s.FS.Lookup(op, parent, name)
}

func (s *wireSpy) park() {
	if s.hold != nil {
		s.holding <- struct{}{}
		<-s.hold
	}
}

func (s *wireSpy) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	s.gets.Add(1)
	v, err := s.FS.Getxattr(op, ino, name)
	s.park()
	return v, err
}

func (s *wireSpy) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	attr, h, err := s.FS.Create(op, parent, name, mode, flags)
	s.park()
	return attr, h, err
}

func (s *wireSpy) Flush(op *vfs.Op, h vfs.Handle) error {
	n := s.flushes.Add(1)
	if s.flushErr != nil {
		return s.flushErr(n)
	}
	return s.FS.Flush(op, h)
}

// nosecEnv is a mount as write(2) and close(2) see it: the kernel-side
// page cache (which asks for security.capability on every write, and
// writes back and flushes on every close) over a Conn whose server serves
// host.
type nosecEnv struct {
	clock *sim.Clock
	host  *memfs.FS
	spy   *wireSpy
	conn  *Conn
	srv   *Server
	top   vfs.FS
	cli   *vfs.Client
}

func nosecMount(t testing.TB, opts MountOptions) *nosecEnv {
	t.Helper()
	clock, model := sim.NewClock(), sim.DefaultCostModel()
	host := memfs.New(memfs.Options{})
	spy := &wireSpy{FS: host}
	conn, srv := Mount(spy, clock, model, opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	top := pagecache.New(conn, clock, model, pagecache.Options{
		KeepCache:    opts.KeepCache,
		Writeback:    opts.WritebackCache,
		MaxWriteSize: int64(opts.MaxWrite),
		FlushOnClose: true,
	})
	return &nosecEnv{clock: clock, host: host, spy: spy, conn: conn, srv: srv, top: top, cli: vfs.NewClient(top, vfs.Root())}
}

var fileCaps = []byte{1, 0, 0, 2}

// seedOnHost puts an empty file on the host, behind the mount's back.
func seedOnHost(t *testing.T, e *nosecEnv, path string) {
	t.Helper()
	if err := vfs.NewClient(e.host, vfs.Root()).WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// openSeeded opens for writing a file put on the host before the mount
// first looked it up: the mount did not make it, so it is not born marked
// and its first write has to ask.
func openSeeded(t *testing.T, e *nosecEnv, path string) *vfs.File {
	t.Helper()
	seedOnHost(t, e, path)
	f, err := e.cli.Open(path, vfs.OWronly, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &f
}

// writeByte is one write(2) through an open file.
func writeByte(t *testing.T, f *vfs.File) {
	t.Helper()
	if n, err := f.WriteAt([]byte{'x'}, 0); n != 1 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
}

// TestNoSecAsksOncePerInode: with NoSec the first write to an inode is the
// one GETXATTR it costs, and a hit charges no virtual time at all; with it
// off every write is a round trip, as in the paper.
func TestNoSecAsksOncePerInode(t *testing.T) {
	for _, opts := range []MountOptions{DefaultMountOptions(), PaperMountOptions()} {
		nosec := opts.NoSec
		e := nosecMount(t, opts)
		f := openSeeded(t, e, "/f")
		for i := 0; i < 5; i++ {
			writeByte(t, f)
		}
		wantGets, wantHits := int64(1), int64(4)
		if !nosec {
			wantGets, wantHits = 5, 0
		}
		if gets, hits := e.spy.gets.Load(), e.conn.Stats().NoSecHits; gets != wantGets || hits != wantHits {
			t.Errorf("NoSec=%v: 5 writes made %d wire GETXATTRs and %d hits, want %d and %d", nosec, gets, hits, wantGets, wantHits)
		}
		before := e.clock.Now()
		_, err := e.conn.Getxattr(vfs.RootOp(), f.Ino(), vfs.XattrSecurityCapability)
		if vfs.ToErrno(err) != vfs.ENODATA {
			t.Fatalf("NoSec=%v: Getxattr = %v, want ENODATA", nosec, err)
		}
		if cost := e.clock.Now() - before; nosec != (cost == 0) {
			t.Errorf("NoSec=%v: the lookup cost %v", nosec, cost)
		}
		f.Close()
	}
}

// TestNoSecStaleAbsence is the security property: nothing that can give an
// inode file capabilities through the mount leaves its "absent" mark
// behind. After each mutation the next write must ask the server again
// (one more wire GETXATTR, no hit), so capabilities set meanwhile are
// found and dropped; the write after that is served from the mark again.
func TestNoSecStaleAbsence(t *testing.T) {
	op := vfs.RootOp()
	setCaps := func(t *testing.T, e *nosecEnv, ino vfs.Ino) {
		t.Helper()
		if err := e.top.Setxattr(op, ino, vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, e *nosecEnv, f *vfs.File)
		hadCaps bool
	}{
		{"setxattr", func(t *testing.T, e *nosecEnv, f *vfs.File) { setCaps(t, e, f.Ino()) }, true},
		{"removexattr then set again", func(t *testing.T, e *nosecEnv, f *vfs.File) {
			setCaps(t, e, f.Ino())
			if err := e.top.Removexattr(op, f.Ino(), vfs.XattrSecurityCapability); err != nil {
				t.Fatal(err)
			}
			writeByte(t, f) // absent again, and remembered so
			setCaps(t, e, f.Ino())
		}, true},
		{"chown", func(t *testing.T, e *nosecEnv, f *vfs.File) {
			if err := e.cli.Chown("/f", 1000, 1000); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"chmod", func(t *testing.T, e *nosecEnv, f *vfs.File) {
			if err := e.cli.Chmod("/f", 0o755); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := nosecMount(t, DefaultMountOptions())
			f := openSeeded(t, e, "/f")
			defer f.Close()
			writeByte(t, f)
			writeByte(t, f)
			if hits := e.conn.Stats().NoSecHits; hits != 1 {
				t.Fatalf("absence not remembered before the mutation: %d hits", hits)
			}

			tc.mutate(t, e, f)
			gets, hits := e.spy.gets.Load(), e.conn.Stats().NoSecHits
			writeByte(t, f)
			if g, h := e.spy.gets.Load(), e.conn.Stats().NoSecHits; g != gets+1 || h != hits {
				t.Fatalf("write after the mutation: wire GETXATTRs %d -> %d, hits %d -> %d; want one more lookup and no hit", gets, g, hits, h)
			}
			if tc.hadCaps {
				gets++ // the removal cleared the mark: the check below is a lookup of its own
			}
			if _, err := e.top.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA {
				t.Fatalf("security.capability after the write: %v, want ENODATA", err)
			}
			writeByte(t, f)
			if g, h := e.spy.gets.Load(), e.conn.Stats().NoSecHits; g != gets+1 || h <= hits {
				t.Fatalf("absence not remembered again: wire GETXATTRs %d, hits %d -> %d", g-gets-1, hits, h)
			}
		})
	}
}

// TestNoSecBehindTheMountsBack: capabilities set directly on the host
// filesystem are not seen while the mark lasts — the window AttrTimeout
// already gives a chmod made the same way — and are seen, and dropped by
// the write that finds them, once the virtual clock passes it.
func TestNoSecBehindTheMountsBack(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	op := vfs.RootOp()
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writeByte(t, &f)
	if err := e.host.Setxattr(op, f.Ino(), vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
		t.Fatal(err)
	}

	gets := e.spy.gets.Load()
	writeByte(t, &f)
	if g := e.spy.gets.Load(); g != gets {
		t.Fatalf("write inside AttrTimeout made %d wire GETXATTRs", g-gets)
	}
	if _, err := e.host.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); err != nil {
		t.Fatalf("host capabilities inside the window: %v", err)
	}

	e.clock.Charge(sim.LayerWorkload, DefaultMountOptions().AttrTimeout+time.Nanosecond)
	writeByte(t, &f)
	if g := e.spy.gets.Load(); g != gets+1 {
		t.Fatalf("write past AttrTimeout made %d wire GETXATTRs, want 1", g-gets)
	}
	if _, err := e.host.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA {
		t.Fatalf("host capabilities after the write that saw them: %v, want ENODATA", err)
	}
}

// TestNoSecAnswerInFlightAcrossSetxattr: an ENODATA computed before a
// SETXATTR but delivered after it must not be remembered.
func TestNoSecAnswerInFlightAcrossSetxattr(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	op := vfs.RootOp()
	f := openSeeded(t, e, "/f")
	defer f.Close()

	e.spy.hold, e.spy.holding = make(chan struct{}), make(chan struct{})
	early := make(chan error)
	go func() {
		_, err := e.conn.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability)
		early <- err
	}()
	<-e.spy.holding
	if err := e.conn.Setxattr(op, f.Ino(), vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
		t.Fatal(err)
	}
	close(e.spy.hold)
	if err := <-early; vfs.ToErrno(err) != vfs.ENODATA {
		t.Fatalf("the overtaken lookup: %v, want ENODATA", err)
	}
	e.spy.hold, e.spy.holding = nil, nil
	if v, err := e.conn.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); err != nil || string(v) != string(fileCaps) {
		t.Fatalf("lookup after the SETXATTR: %v, %v; the overtaken ENODATA was remembered", v, err)
	}
}

// nosecMarked reports whether ino carries a mark.
func nosecMarked(c *Conn, ino vfs.Ino) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.nosec[ino]
	return ok
}

// TestNoSecBornMarked: an inode the mount made by CREATE or MKNOD has no
// xattrs, and is marked so from the reply: none of its writes asks the
// server. Requests that make or find any other kind of name leave no mark.
func TestNoSecBornMarked(t *testing.T) {
	op := vfs.RootOp()
	e := nosecMount(t, DefaultMountOptions())
	f, err := e.cli.Create("/created", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := e.conn.Mknod(op, vfs.RootIno, "node", vfs.TypeRegular, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	g, err := e.cli.Open("/node", vfs.OWronly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const writes = 5
	for i := 0; i < writes; i++ {
		writeByte(t, &f)
		writeByte(t, &g)
	}
	if gets, hits := e.spy.gets.Load(), e.conn.Stats().NoSecHits; gets != 0 || hits != 2*writes {
		t.Fatalf("%d writes each to a created and a mknod'ed file: %d wire GETXATTRs and %d hits, want 0 and %d", writes, gets, hits, 2*writes)
	}

	seedOnHost(t, e, "/seeded")
	unmarked := map[string]func() (vfs.Attr, error){
		"mkdir":   func() (vfs.Attr, error) { return e.conn.Mkdir(op, vfs.RootIno, "dir", 0o755) },
		"symlink": func() (vfs.Attr, error) { return e.conn.Symlink(op, vfs.RootIno, "sym", "created") },
		"lookup":  func() (vfs.Attr, error) { return e.conn.Lookup(op, vfs.RootIno, "seeded") },
		"link": func() (vfs.Attr, error) {
			seeded, err := e.conn.Lookup(op, vfs.RootIno, "seeded")
			if err != nil {
				return seeded, err
			}
			return e.conn.Link(op, seeded.Ino, vfs.RootIno, "hardlink")
		},
	}
	for name, request := range unmarked {
		attr, err := request()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nosecMarked(e.conn, attr.Ino) {
			t.Errorf("%s left inode %d marked", name, attr.Ino)
		}
	}

	// The paper's configuration has no marks to be born with.
	paper := nosecMount(t, PaperMountOptions())
	h, err := paper.cli.Create("/created", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	writeByte(t, &h)
	if gets := paper.spy.gets.Load(); gets != 1 || nosecMarked(paper.conn, h.Ino()) {
		t.Fatalf("paper's configuration: %d wire GETXATTRs for one write, marked %v; want 1 and no mark", gets, nosecMarked(paper.conn, h.Ino()))
	}
}

// TestNoSecBornThenGivenCapabilities: a born mark is a mark like any
// other. Capabilities set on the new file clear it, and the next write
// asks, finds them and drops them.
func TestNoSecBornThenGivenCapabilities(t *testing.T) {
	op := vfs.RootOp()
	e := nosecMount(t, DefaultMountOptions())
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := e.top.Setxattr(op, f.Ino(), vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
		t.Fatal(err)
	}
	writeByte(t, &f)
	if gets, hits := e.spy.gets.Load(), e.conn.Stats().NoSecHits; gets != 1 || hits != 0 {
		t.Fatalf("write after SETXATTR on a new file: %d wire GETXATTRs, %d hits; want 1 and 0", gets, hits)
	}
	if _, err := e.host.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA {
		t.Fatalf("host capabilities after the write: %v, want ENODATA", err)
	}
}

// TestNoSecBornMarkRacesSetxattr: between the server making the file and
// its CREATE reply arriving, another client can find the file by name and
// give it capabilities. The reply must then mark nothing.
func TestNoSecBornMarkRacesSetxattr(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	op := vfs.RootOp()
	e.spy.hold, e.spy.holding = make(chan struct{}), make(chan struct{})
	type created struct {
		attr vfs.Attr
		h    vfs.Handle
		err  error
	}
	reply := make(chan created)
	go func() {
		attr, h, err := e.conn.Create(op, vfs.RootIno, "f", 0o644, vfs.OWronly)
		reply <- created{attr, h, err}
	}()
	<-e.spy.holding
	found, err := e.conn.Lookup(op, vfs.RootIno, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.conn.Setxattr(op, found.Ino, vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
		t.Fatal(err)
	}
	close(e.spy.hold)
	c := <-reply
	if c.err != nil || c.attr.Ino != found.Ino {
		t.Fatalf("the overtaken create: inode %d, %v; the lookup found inode %d", c.attr.Ino, c.err, found.Ino)
	}
	defer e.conn.Release(op, c.h)
	e.spy.hold, e.spy.holding = nil, nil
	if nosecMarked(e.conn, c.attr.Ino) {
		t.Fatal("the CREATE reply marked a file that was given capabilities before it arrived")
	}
	if v, err := e.conn.Getxattr(op, c.attr.Ino, vfs.XattrSecurityCapability); err != nil || string(v) != string(fileCaps) {
		t.Fatalf("lookup after the create: %v, %v", v, err)
	}
}

// TestNoSecConcurrentClients: clients of one mount, each on a file of its
// own, set capabilities, write and look. Their clears and marks interleave
// in the one table (and every clear voids the others' lookups in flight),
// which may cost a client a lookup but never the property: the write
// after a SETXATTR finds the capabilities and drops them.
func TestNoSecConcurrentClients(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	op := vfs.RootOp()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		f, err := e.cli.Create(fmt.Sprint("/f", g), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					if err := e.top.Setxattr(op, f.Ino(), vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
						t.Error(err)
						return
					}
				}
				if n, err := f.WriteAt([]byte{'x'}, 0); n != 1 || err != nil {
					t.Errorf("write: %d, %v", n, err)
					return
				}
				if _, err := e.top.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA {
					t.Errorf("capabilities after a write: %v, want ENODATA", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits := e.conn.Stats().NoSecHits; hits == 0 {
		t.Error("no lookup was served from a mark")
	}
}

// TestNoSecMarksDieWithTheirInodes: the table is bounded by the live
// files, not by every file ever written. Each request that ends an inode
// takes its mark along, and a FORGET does unless a handle still pins the
// inode (an attribute invalidation flushes withheld forgets mid-file: that
// must not cost the mark).
func TestNoSecMarksDieWithTheirInodes(t *testing.T) {
	op := vfs.RootOp()
	cases := []struct {
		name string
		end  func(c *Conn, ino vfs.Ino, h vfs.Handle) error
		kept bool
	}{
		{"unlink", func(c *Conn, _ vfs.Ino, h vfs.Handle) error {
			c.Release(op, h)
			return c.Unlink(op, vfs.RootIno, "f")
		}, false},
		{"rename over", func(c *Conn, _ vfs.Ino, h vfs.Handle) error {
			c.Release(op, h)
			if _, _, err := c.Create(op, vfs.RootIno, "g", 0o644, vfs.OWronly); err != nil {
				return err
			}
			return c.Rename(op, vfs.RootIno, "g", vfs.RootIno, "f", 0)
		}, false},
		{"forget", func(c *Conn, ino vfs.Ino, h vfs.Handle) error {
			c.Release(op, h)
			c.invalidateAttr(ino) // or the forget is withheld
			c.Forget(op, ino, 1)
			return nil
		}, false},
		{"forget while open", func(c *Conn, ino vfs.Ino, _ vfs.Handle) error {
			c.invalidateAttr(ino)
			c.Forget(op, ino, 1)
			return nil
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := nosecMount(t, DefaultMountOptions()).conn
			attr, h, err := c.Create(op, vfs.RootIno, "f", 0o644, vfs.OWronly)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Getxattr(op, attr.Ino, vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA || !nosecMarked(c, attr.Ino) {
				t.Fatalf("lookup on a new file: %v, marked %v", err, nosecMarked(c, attr.Ino))
			}
			if err := tc.end(c, attr.Ino, h); err != nil {
				t.Fatal(err)
			}
			if got := nosecMarked(c, attr.Ino); got != tc.kept {
				t.Fatalf("mark kept = %v, want %v", got, tc.kept)
			}
		})
	}

	t.Run("10000 files", func(t *testing.T) {
		e := nosecMount(t, DefaultMountOptions())
		for i := 0; i < 10000; i++ {
			if err := e.cli.WriteFile("/f", []byte{'x'}, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := e.cli.Remove("/f"); err != nil {
				t.Fatal(err)
			}
		}
		if gets, hits := e.spy.gets.Load(), e.conn.Stats().NoSecHits; gets != 0 || hits != 10000 {
			t.Fatalf("10000 new files: %d wire GETXATTRs and %d hits, want each write served by its file's born mark", gets, hits)
		}
		e.conn.mu.Lock()
		defer e.conn.mu.Unlock()
		if n := len(e.conn.nosec); n > 1 {
			t.Fatalf("%d marks left after 10000 create-write-unlink rounds", n)
		}
	})
}

// TestNoSecDifferential is the oracle for the mark and for the dropped
// FLUSH: three mounts over identical trees — the default, the default
// without NoSec, and the paper's configuration — are driven by the same
// seeded script of every operation that reads, sets or could invalidate a
// mark, every file closed as it goes. What is beyond the paper may change
// what crosses the wire, never what the caller sees: every return value
// and errno, and the sizes, xattrs and modes the host ends up with, must
// be equal — and the NoSec side never asks more often.
func TestNoSecDifferential(t *testing.T) {
	seeds := uint64(5000)
	if testing.Short() || raceBuild() {
		// The detector is after interleavings, not scripts, and makes
		// every round trip ten times dearer.
		seeds = 500
	}
	withoutNoSec := DefaultMountOptions()
	withoutNoSec.NoSec = false
	mounts := []struct {
		name string
		opts MountOptions
	}{ // the first is the one the others are compared with
		{"default", DefaultMountOptions()},
		{"without NoSec", withoutNoSec},
		{"on the paper's configuration", PaperMountOptions()},
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		envs, rngs := make([]*nosecEnv, len(mounts)), make([]*sim.Rand, len(mounts))
		for k, m := range mounts {
			envs[k], rngs[k] = nosecMount(t, m.opts), sim.NewRand(seed)
		}
		on := envs[0]
		for i := 0; i < 40; i++ {
			a := nosecStep(on, rngs[0])
			for k := 1; k < len(envs); k++ {
				if b := nosecStep(envs[k], rngs[k]); a != b {
					t.Fatalf("seed %d op %d: default %q, %s %q", seed, i, a, mounts[k].name, b)
				}
			}
		}
		for k := 1; k < len(envs); k++ {
			if a, b := hostState(on), hostState(envs[k]); a != b {
				t.Fatalf("seed %d: final host state\n default %s\n %s %s", seed, a, mounts[k].name, b)
			}
			if a, b := on.spy.gets.Load(), envs[k].spy.gets.Load(); a > b {
				t.Fatalf("seed %d: %d wire GETXATTRs by default, %d %s", seed, a, b, mounts[k].name)
			}
		}
		// 15 000 mounts: stop each triple's workers now, not at the end.
		for _, e := range envs {
			e.conn.Unmount()
		}
	}
}

var nosecNames = []string{"/a", "/b", "/c"}

// nosecStep runs the script's next operation on e and renders what the
// caller saw.
func nosecStep(e *nosecEnv, rng *sim.Rand) string {
	op := vfs.RootOp()
	name := nosecNames[rng.Intn(len(nosecNames))]
	other := nosecNames[rng.Intn(len(nosecNames))]
	xattr := vfs.XattrSecurityCapability
	if rng.Intn(3) == 0 {
		xattr = "user.note"
	}
	ino := func() (vfs.Ino, error) {
		attr, err := e.cli.Stat(name)
		return attr.Ino, err
	}
	switch k := rng.Intn(20); {
	case k < 3:
		f, err := e.cli.Open(name, vfs.OWronly|vfs.OCreat|vfs.OExcl, 0o644)
		if err == nil {
			err = f.Close()
		}
		return fmt.Sprint("create ", name, err)
	case k < 9:
		f, err := e.cli.Open(name, vfs.OWronly, 0)
		if err != nil {
			return fmt.Sprint("open ", name, err)
		}
		out := fmt.Sprint("write ", name)
		for n := rng.Intn(3) + 1; n > 0; n-- {
			w, err := f.WriteAt([]byte("data"), int64(rng.Intn(8192)))
			out += fmt.Sprint(" ", w, err)
		}
		return out + fmt.Sprint(f.Close())
	case k < 11:
		i, err := ino()
		if err == nil {
			err = e.top.Setxattr(op, i, xattr, fileCaps, 0)
		}
		return fmt.Sprint("setxattr ", name, xattr, err)
	case k < 12:
		i, err := ino()
		if err == nil {
			err = e.top.Removexattr(op, i, xattr)
		}
		return fmt.Sprint("removexattr ", name, xattr, err)
	case k < 14:
		i, err := ino()
		var v []byte
		if err == nil {
			v, err = e.top.Getxattr(op, i, xattr)
		}
		return fmt.Sprint("getxattr ", name, xattr, v, err)
	case k < 15:
		return fmt.Sprint("chmod ", name, e.cli.Chmod(name, vfs.Mode(0o600+rng.Intn(0o200))))
	case k < 16:
		return fmt.Sprint("chown ", name, e.cli.Chown(name, uint32(rng.Intn(3)), 0))
	case k < 17:
		return fmt.Sprint("link ", name, other, e.cli.Link(name, other))
	case k < 18:
		return fmt.Sprint("rename ", name, other, e.cli.Rename(name, other))
	case k < 19:
		return fmt.Sprint("unlink ", name, e.cli.Remove(name))
	default:
		// Some scripts outlive their marks, dentries and attributes.
		e.clock.Charge(sim.LayerWorkload, 400*time.Millisecond)
		return "wait"
	}
}

// hostState renders what the mount left on the host: per name, the
// inode's mode, owner, link count and every xattr.
func hostState(e *nosecEnv) string {
	op := vfs.RootOp()
	host := vfs.NewClient(e.host, vfs.Root())
	out := ""
	for _, name := range nosecNames {
		attr, err := host.Stat(name)
		if err != nil {
			out += fmt.Sprint(name, " ", err, "; ")
			continue
		}
		out += fmt.Sprintf("%s %o uid %d nlink %d size %d", name, attr.Mode, attr.UID, attr.Nlink, attr.Size)
		names, _ := e.host.Listxattr(op, attr.Ino)
		for _, x := range names {
			v, _ := e.host.Getxattr(op, attr.Ino, x)
			out += fmt.Sprint(" ", x, "=", v)
		}
		out += "; "
	}
	return out
}
