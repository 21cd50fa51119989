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

// xattrSpy sits under the server: every GETXATTR frame that crosses the
// wire is one Getxattr call here. hold, when set, keeps an answer back —
// computed, not yet replied — until it is closed.
type xattrSpy struct {
	vfs.FS
	gets    atomic.Int64
	hold    chan struct{}
	holding chan struct{}
}

func (s *xattrSpy) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	s.gets.Add(1)
	v, err := s.FS.Getxattr(op, ino, name)
	if s.hold != nil {
		s.holding <- struct{}{}
		<-s.hold
	}
	return v, err
}

// nosecEnv is a mount as write(2) sees it: the kernel-side page cache
// (which asks for security.capability on every write) over a Conn whose
// server serves host.
type nosecEnv struct {
	clock *sim.Clock
	host  *memfs.FS
	spy   *xattrSpy
	conn  *Conn
	top   vfs.FS
	cli   *vfs.Client
}

func nosecMount(t testing.TB, nosec bool) *nosecEnv {
	t.Helper()
	clock, model := sim.NewClock(), sim.DefaultCostModel()
	host := memfs.New(memfs.Options{})
	spy := &xattrSpy{FS: host}
	opts := DefaultMountOptions()
	opts.NoSec = nosec
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
	return &nosecEnv{clock: clock, host: host, spy: spy, conn: conn, top: top, cli: vfs.NewClient(top, vfs.Root())}
}

var fileCaps = []byte{1, 0, 0, 2}

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
	for _, nosec := range []bool{true, false} {
		e := nosecMount(t, nosec)
		f, err := e.cli.Create("/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
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
		_, err = e.conn.Getxattr(vfs.RootOp(), f.Ino(), vfs.XattrSecurityCapability)
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
			e := nosecMount(t, true)
			f, err := e.cli.Create("/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
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
	e := nosecMount(t, true)
	op := vfs.RootOp()
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writeByte(t, f)
	if err := e.host.Setxattr(op, f.Ino(), vfs.XattrSecurityCapability, fileCaps, 0); err != nil {
		t.Fatal(err)
	}

	gets := e.spy.gets.Load()
	writeByte(t, f)
	if g := e.spy.gets.Load(); g != gets {
		t.Fatalf("write inside AttrTimeout made %d wire GETXATTRs", g-gets)
	}
	if _, err := e.host.Getxattr(op, f.Ino(), vfs.XattrSecurityCapability); err != nil {
		t.Fatalf("host capabilities inside the window: %v", err)
	}

	e.clock.Advance(DefaultMountOptions().AttrTimeout + time.Nanosecond)
	writeByte(t, f)
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
	e := nosecMount(t, true)
	op := vfs.RootOp()
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
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

// TestNoSecConcurrentClients: clients of one mount, each on a file of its
// own, set capabilities, write and look. Their clears and marks interleave
// in the one table (and every clear voids the others' lookups in flight),
// which may cost a client a lookup but never the property: the write
// after a SETXATTR finds the capabilities and drops them.
func TestNoSecConcurrentClients(t *testing.T) {
	e := nosecMount(t, true)
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
// inode (the write path's own attribute invalidation flushes withheld
// forgets mid-file: that must not cost the mark).
func TestNoSecMarksDieWithTheirInodes(t *testing.T) {
	op := vfs.RootOp()
	marked := func(c *Conn, ino vfs.Ino) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.nosec[ino]
		return ok
	}
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
			c := nosecMount(t, true).conn
			attr, h, err := c.Create(op, vfs.RootIno, "f", 0o644, vfs.OWronly)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Getxattr(op, attr.Ino, vfs.XattrSecurityCapability); vfs.ToErrno(err) != vfs.ENODATA || !marked(c, attr.Ino) {
				t.Fatalf("lookup on a new file: %v, marked %v", err, marked(c, attr.Ino))
			}
			if err := tc.end(c, attr.Ino, h); err != nil {
				t.Fatal(err)
			}
			if got := marked(c, attr.Ino); got != tc.kept {
				t.Fatalf("mark kept = %v, want %v", got, tc.kept)
			}
		})
	}

	t.Run("10000 files", func(t *testing.T) {
		e := nosecMount(t, true)
		for i := 0; i < 10000; i++ {
			if err := e.cli.WriteFile("/f", []byte{'x'}, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := e.cli.Remove("/f"); err != nil {
				t.Fatal(err)
			}
		}
		if gets := e.spy.gets.Load(); gets != 10000 {
			t.Fatalf("%d wire GETXATTRs for 10000 new files, want one each", gets)
		}
		e.conn.mu.Lock()
		defer e.conn.mu.Unlock()
		if n := len(e.conn.nosec); n > 1 {
			t.Fatalf("%d marks left after 10000 create-write-unlink rounds", n)
		}
	})
}

// TestNoSecDifferential is the oracle for the mark: two mounts over
// identical trees, NoSec on and off, are driven by the same seeded script
// of every operation that reads, sets or could invalidate it. The mark
// may change what crosses the wire, never what the caller sees: every
// return value and errno, and the xattrs and modes the host ends up with,
// must be equal — and the NoSec side never asks more often.
func TestNoSecDifferential(t *testing.T) {
	seeds := uint64(5000)
	if testing.Short() || raceBuild() {
		// The detector is after interleavings, not scripts, and makes
		// every round trip ten times dearer.
		seeds = 500
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		on, off := nosecMount(t, true), nosecMount(t, false)
		rngOn, rngOff := sim.NewRand(seed), sim.NewRand(seed)
		for i := 0; i < 40; i++ {
			a, b := nosecStep(on, rngOn), nosecStep(off, rngOff)
			if a != b {
				t.Fatalf("seed %d op %d: NoSec on %q, off %q", seed, i, a, b)
			}
		}
		if a, b := hostState(on), hostState(off); a != b {
			t.Fatalf("seed %d: final host state\n on  %s\n off %s", seed, a, b)
		}
		if a, b := on.spy.gets.Load(), off.spy.gets.Load(); a > b {
			t.Fatalf("seed %d: %d wire GETXATTRs with NoSec, %d without", seed, a, b)
		}
		// 10 000 mounts: stop each pair's workers now, not at the end.
		for _, e := range []*nosecEnv{on, off} {
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
		e.clock.Advance(400 * time.Millisecond)
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
