package fuse

import (
	"maps"
	"sync/atomic"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// plusEntry appends one READDIRPLUS entry to a reply body: name at
// cookie off, with attr's record (nil: none, all zero).
func plusEntry(w *buf, name string, off int64, attr *vfs.Attr) {
	encodeDirent(w, &vfs.Dirent{Name: name, Ino: 9, Type: vfs.TypeRegular, Off: off})
	if attr == nil {
		w.b = append(w.b, noAttr[:]...)
		return
	}
	encodeAttr(w, attr)
}

// TestReaddirPlusReplies: a READDIRPLUS reply is decoded whole before
// anything in it is installed. A reply whose last attribute record is cut
// short, or that declares more entries than it carries, is EIO and
// installs no dentry and no attributes. An entry whose attributes name
// "." or "..", or nodeid 0, is listed and skipped, as
// fuse_direntplus_link skips it, and the rest of the reply is installed.
func TestReaddirPlusReplies(t *testing.T) {
	file := &vfs.Attr{Ino: 7, Type: vfs.TypeRegular, Mode: 0o644, Nlink: 1, Size: 3}
	dir := &vfs.Attr{Ino: vfs.RootIno, Type: vfs.TypeDirectory, Mode: 0o755, Nlink: 2}
	rows := []struct {
		name    string
		body    func(w *buf)
		want    vfs.Errno
		listed  int
		install []string
	}{
		{"attribute cut short", func(w *buf) {
			w.u32(1)
			plusEntry(w, "f", 1, file)
			w.b = w.b[:len(w.b)-1]
		}, vfs.EIO, 0, nil},
		{"fewer entries than declared", func(w *buf) {
			w.u32(2)
			plusEntry(w, "f", 1, file)
		}, vfs.EIO, 0, nil},
		{"dot entries and nodeid 0 skipped", func(w *buf) {
			w.u32(4)
			plusEntry(w, ".", 1, dir)
			plusEntry(w, "..", 2, dir)
			plusEntry(w, "gone", 3, &vfs.Attr{Type: vfs.TypeRegular, Mode: 0o644})
			plusEntry(w, "f", 4, file)
		}, vfs.OK, 4, []string{"f"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := replyingMount(t, func(h *ReqHeader, w *buf) {
				if h.Opcode == OpReaddirplus {
					row.body(w)
				} else {
					w.u32(0) // the READDIR that ends the listing
				}
			})
			c.trackHandle(5, vfs.RootIno)
			ents, err := c.Readdir(vfs.RootOp(), 5, 0)
			if vfs.ToErrno(err) != row.want || len(ents) != row.listed {
				t.Fatalf("%d entries, %v; want %d, %v", len(ents), err, row.listed, row.want)
			}
			if f := c.Stats().Frames[OpReaddirplus]; f != 1 {
				t.Errorf("%d READDIRPLUS frames, want 1", f)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			var names []string
			for k := range c.entries {
				names = append(names, k.name)
			}
			if len(names) != len(row.install) || len(names) > 0 && names[0] != row.install[0] {
				t.Errorf("dentries installed for %q, want %q", names, row.install)
			}
			if len(c.attrs) != len(row.install) {
				t.Errorf("attributes installed for %d inodes, want %d: %v", len(c.attrs), len(row.install), c.attrs)
			} else if got := c.attrs[file.Ino].attr; len(row.install) > 0 &&
				(got.Type != file.Type || got.Mode != file.Mode || got.Size != file.Size || got.Nlink != file.Nlink) {
				t.Errorf("installed %+v, want %+v", got, *file)
			}
		})
	}
}

// lookupSpy counts the lookups the filesystem under a server answers and
// the lookup counts it is told to forget.
type lookupSpy struct {
	vfs.FS
	looked, forgot atomic.Int64
}

func (s *lookupSpy) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	attr, err := s.FS.Lookup(op, parent, name)
	if err == nil {
		s.looked.Add(1)
	}
	return attr, err
}

func (s *lookupSpy) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {
	s.forgot.Add(int64(nlookup))
	s.FS.Forget(op, ino, nlookup)
}

// TestReaddirPlusForgets: on a mount that sends every listing from the
// start as a READDIRPLUS (NoOpendir off, so no listing is kept), a second
// listing within EntryTimeout finds every dentry it carries still valid
// and installs nothing — not even a later expiry — and the connection
// forgets, once each, exactly the lookups the server made for that reply
// (fuse_force_forget). The first listing's lookups it keeps.
func TestReaddirPlusForgets(t *testing.T) {
	opts := DefaultMountOptions()
	opts.NoOpendir = false
	host := memfs.New(memfs.Options{})
	hostCli := vfs.NewClient(host, vfs.Root())
	files := []string{"a", "b", "c", "d", "e"}
	for _, f := range files {
		if err := hostCli.WriteFile("/"+f, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spy := &lookupSpy{FS: host}
	clock := sim.NewClock()
	conn, srv := Mount(spy, clock, sim.DefaultCostModel(), opts)
	snapshot := func() (map[entryKey]entryVal, map[vfs.Ino]attrVal) {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return maps.Clone(conn.entries), maps.Clone(conn.attrs)
	}
	if names, err := listDir(conn, vfs.RootIno); err != nil || len(names) != len(files) {
		t.Fatal(names, err)
	}
	entries, attrs := snapshot()
	if len(entries) != len(files) || len(attrs) != len(files) {
		t.Fatalf("the first listing installed %d dentries and %d attribute records, want %d", len(entries), len(attrs), len(files))
	}
	first := spy.looked.Load()
	clock.Advance(opts.EntryTimeout / 2)
	if _, err := listDir(conn, vfs.RootIno); err != nil {
		t.Fatal(err)
	}
	if e, a := snapshot(); !maps.Equal(e, entries) || !maps.Equal(a, attrs) {
		t.Errorf("the second listing installed: dentries %v, attributes %v", e, a)
	}
	second := spy.looked.Load() - first
	if f := conn.Stats().Frames[OpReaddirplus]; f != 2 || first != int64(len(files)) || second != int64(len(files)) {
		t.Fatalf("%d READDIRPLUS frames looked up %d and %d entries, want 2 of %d", f, first, second, len(files))
	}
	conn.Unmount() // sends the batch of forgets
	srv.Wait()
	if got := spy.forgot.Load(); got != second {
		t.Errorf("the server was told to forget %d lookups, want the second reply's %d", got, second)
	}
}

// TestReaddirPlusInFlightUnlink: a scripted server holds the reply to a
// listing's READDIRPLUS, computed while the file "f" was there, until an
// UNLINK of f through the same connection has completed. The reply then
// installs nothing: a stat of f sends a LOOKUP and finds it gone, where an
// installed dentry would have answered from the cache that f exists.
func TestReaddirPlusInFlightUnlink(t *testing.T) {
	clock, model := sim.NewClock(), sim.DefaultCostModel()
	opts := DefaultMountOptions()
	opts.ServerThreads = 0 // no workers: the loop below serves
	table := newReqTable(256)
	conn := newConn(clock, model, opts, table)
	host := memfs.New(memfs.Options{})
	if err := vfs.NewClient(host, vfs.Root()).WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newServer(host, clock, model, opts, table)
	held := make(chan *request, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		wk := &worker{s: srv}
		for {
			msg, origin, ok := table.pop()
			if !ok {
				return
			}
			var h ReqHeader
			decodeReqHeader(msg.frame.b, &h, &rdr{})
			reply, acct := wk.dispatch(msg.frame.b, msg.out)
			table.done(origin, acct.readBytes, acct.writeBytes, acct.isRead, acct.isWrite)
			if msg.oneWay {
				msg.release()
				continue
			}
			msg.out = reply
			if h.Opcode == OpReaddirplus {
				held <- msg // the test sends it on
				continue
			}
			msg.reply <- reply
		}
	}()
	t.Cleanup(func() {
		conn.Unmount()
		<-exited
	})

	op := vfs.RootOp()
	dh, err := conn.Opendir(op, vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(chan []vfs.Dirent, 1)
	go func() {
		ents, err := conn.Readdir(op, dh, 0)
		if err != nil {
			t.Error(err)
		}
		listed <- ents
	}()
	p := <-held
	if err := conn.Unlink(op, vfs.RootIno, "f"); err != nil {
		t.Fatal(err)
	}
	p.reply <- p.out
	if ents := <-listed; len(ents) != 3 || ents[2].Name != "f" {
		t.Fatalf("the held listing: %v, want ., .. and f", ents)
	}
	conn.mu.Lock()
	_, installed := conn.entries[entryKey{vfs.RootIno, "f"}]
	conn.mu.Unlock()
	if installed {
		t.Error("the reply the unlink overtook installed f's dentry")
	}
	lookups := conn.Stats().Frames[OpLookup]
	if _, err := conn.Lookup(op, vfs.RootIno, "f"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Errorf("stat of the unlinked file: %v, want ENOENT", err)
	}
	if sent := conn.Stats().Frames[OpLookup] - lookups; sent != 1 {
		t.Errorf("stat of the unlinked file sent %d LOOKUPs, want 1", sent)
	}
}
