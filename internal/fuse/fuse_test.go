package fuse

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

type env struct {
	clock *sim.Clock
	model *sim.CostModel
	back  *memfs.FS
	conn  *Conn
	srv   *Server
	cli   *vfs.Client
}

func mount(t *testing.T, opts MountOptions) *env {
	t.Helper()
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	back := memfs.New(memfs.Options{})
	conn, srv := Mount(back, clock, model, opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	return &env{
		clock: clock, model: model, back: back, conn: conn, srv: srv,
		cli: vfs.NewClient(conn, vfs.Root()),
	}
}

func TestRoundTripFileIO(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	data := bytes.Repeat([]byte("fuse"), 10000)
	if err := e.cli.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := e.cli.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted over the wire")
	}
}

func TestDirectoryOpsOverWire(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	if err := e.cli.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.WriteFile("/a/b/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := e.cli.ReadDir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("entries = %v", ents)
	}
	if err := e.cli.Rename("/a/b/f", "/a/f2"); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.Remove("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.Symlink("/a/f2", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := e.cli.ReadFile("/ln")
	if err != nil || string(got) != "x" {
		t.Fatalf("through symlink: %q %v", got, err)
	}
	if err := e.cli.Link("/a/f2", "/hard"); err != nil {
		t.Fatal(err)
	}
	attr, _ := e.cli.Stat("/hard")
	if attr.Nlink != 2 {
		t.Fatalf("nlink = %d", attr.Nlink)
	}
}

func TestErrnoCrossesWire(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	_, err := e.cli.ReadFile("/missing")
	if vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("err = %v, want ENOENT", err)
	}
	e.cli.Mkdir("/d", 0o755)
	e.cli.Mkdir("/d/x", 0o755)
	if err := e.cli.Remove("/d"); vfs.ToErrno(err) != vfs.ENOTEMPTY {
		t.Fatalf("err = %v, want ENOTEMPTY", err)
	}
}

func TestXattrOverWire(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	e.cli.WriteFile("/f", nil, 0o644)
	r, _ := e.cli.Resolve("/f")
	if err := e.conn.Setxattr(e.cli.Op, r.Ino, "user.a", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	v, err := e.conn.Getxattr(e.cli.Op, r.Ino, "user.a")
	if err != nil || string(v) != "v" {
		t.Fatalf("getxattr: %q %v", v, err)
	}
	names, err := e.conn.Listxattr(e.cli.Op, r.Ino)
	if err != nil || len(names) != 1 {
		t.Fatalf("listxattr: %v %v", names, err)
	}
	if err := e.conn.Removexattr(e.cli.Op, r.Ino, "user.a"); err != nil {
		t.Fatal(err)
	}
}

func TestODirectRejected(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	e.cli.WriteFile("/f", []byte("x"), 0o644)
	_, err := e.cli.Open("/f", vfs.ORdonly|vfs.ODirect, 0)
	if vfs.ToErrno(err) != vfs.EINVAL {
		t.Fatalf("O_DIRECT open: %v, want EINVAL", err)
	}
}

func TestDentryCacheAvoidsRoundTrips(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	e.cli.MkdirAll("/dir", 0o755)
	e.cli.WriteFile("/dir/f", []byte("x"), 0o644)
	before := e.conn.Stats().Requests
	for i := 0; i < 50; i++ {
		if _, err := e.cli.Stat("/dir/f"); err != nil {
			t.Fatal(err)
		}
	}
	delta := e.conn.Stats().Requests - before
	if delta > 10 {
		t.Fatalf("50 cached stats cost %d round trips", delta)
	}
	st := e.conn.Stats()
	if st.EntryHits == 0 {
		t.Fatal("expected dentry cache hits")
	}
}

func TestEntryCacheExpires(t *testing.T) {
	opts := DefaultMountOptions()
	opts.EntryTimeout = 10 * time.Millisecond
	opts.AttrTimeout = 10 * time.Millisecond
	e := mount(t, opts)
	e.cli.WriteFile("/f", nil, 0o644)
	e.cli.Stat("/f")
	e.clock.Advance(time.Second) // expire
	before := e.conn.Stats().Requests
	e.cli.Stat("/f")
	if e.conn.Stats().Requests == before {
		t.Fatal("expired entries must revalidate over the wire")
	}
}

func TestInvalidationAfterUnlink(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	e.cli.WriteFile("/f", nil, 0o644)
	e.cli.Stat("/f") // prime cache
	if err := e.cli.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Stat("/f"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("stale dentry survived unlink: %v", err)
	}
}

func TestForgetBatching(t *testing.T) {
	opts := DefaultMountOptions()
	e := mount(t, opts)
	for i := 0; i < ForgetBatchSize; i++ {
		e.conn.Forget(nil, vfs.Ino(i+2), 1)
	}
	st := e.conn.Stats()
	if st.BatchFrames != 1 {
		t.Fatalf("batch frames = %d, want 1", st.BatchFrames)
	}
	if st.ForgetsSent != ForgetBatchSize {
		t.Fatalf("forgets sent = %d", st.ForgetsSent)
	}
}

func TestUnbatchedForgetsCostMore(t *testing.T) {
	run := func(batch bool) time.Duration {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		opts := DefaultMountOptions()
		opts.BatchForget = batch
		conn, srv := Mount(memfs.New(memfs.Options{}), clock, model, opts)
		start := clock.Now()
		for i := 0; i < 1000; i++ {
			conn.Forget(nil, vfs.Ino(i+2), 1)
		}
		elapsed := clock.Now() - start
		conn.Unmount()
		srv.Wait()
		return elapsed
	}
	batched, unbatched := run(true), run(false)
	if batched*2 > unbatched {
		t.Fatalf("batched forgets (%v) should be far cheaper than unbatched (%v)", batched, unbatched)
	}
}

func TestLookupStreakAmortization(t *testing.T) {
	// A scan of many fresh names (cold dentry cache) should be cheaper
	// with ParallelDirops than without.
	run := func(parallel bool) time.Duration {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		back := memfs.New(memfs.Options{})
		cli0 := vfs.NewClient(back, vfs.Root())
		for i := 0; i < 200; i++ {
			cli0.WriteFile("/f"+string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('A'+i/26%26)), nil, 0o644)
		}
		opts := DefaultMountOptions()
		opts.ParallelDirops = parallel
		opts.EntryTimeout = 0 // keep lookups cold
		conn, srv := Mount(back, clock, model, opts)
		cli := vfs.NewClient(conn, vfs.Root())
		start := clock.Now()
		ents, err := cli.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if _, err := cli.Stat("/" + ent.Name); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := clock.Now() - start
		conn.Unmount()
		srv.Wait()
		return elapsed
	}
	with, without := run(true), run(false)
	if with*2 > without {
		t.Fatalf("PARALLEL_DIROPS scan %v should beat serialized %v by >=2x", with, without)
	}
}

func TestSpliceReadReducesCopyCost(t *testing.T) {
	run := func(splice bool) time.Duration {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		back := memfs.New(memfs.Options{})
		vfs.NewClient(back, vfs.Root()).WriteFile("/big", make([]byte, 8<<20), 0o644)
		opts := DefaultMountOptions()
		opts.SpliceRead = splice
		conn, srv := Mount(back, clock, model, opts)
		cli := vfs.NewClient(conn, vfs.Root())
		start := clock.Now()
		if _, err := cli.ReadFile("/big"); err != nil {
			t.Fatal(err)
		}
		elapsed := clock.Now() - start
		conn.Unmount()
		srv.Wait()
		return elapsed
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("splice read (%v) should be cheaper than copy (%v)", with, without)
	}
}

func TestSpliceWriteTaxesAllOps(t *testing.T) {
	cost := func(spliceWrite bool) time.Duration {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		opts := DefaultMountOptions()
		opts.SpliceWrite = spliceWrite
		conn, srv := Mount(memfs.New(memfs.Options{}), clock, model, opts)
		cli := vfs.NewClient(conn, vfs.Root())
		start := clock.Now()
		for i := 0; i < 100; i++ {
			cli.Stat("/")
			conn.invalidateAttr(vfs.RootIno) // force round trips
		}
		elapsed := clock.Now() - start
		conn.Unmount()
		srv.Wait()
		return elapsed
	}
	with, without := cost(true), cost(false)
	if with <= without {
		t.Fatalf("splice write must add per-request cost: with=%v without=%v", with, without)
	}
}

func TestConcurrentClients(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli := vfs.NewClient(e.conn, vfs.Root())
			name := "/file" + string(rune('a'+id))
			data := bytes.Repeat([]byte{byte(id)}, 10000)
			if err := cli.WriteFile(name, data, 0o644); err != nil {
				errs <- err
				return
			}
			got, err := cli.ReadFile(name)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- vfs.EIO
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCredKeepsCapabilities(t *testing.T) {
	var c vfs.Cred
	serverCred(&c, 1000, 1000, nil)
	if c.FSUID != 1000 || c.FSGID != 1000 {
		t.Fatal("fsuid/fsgid must follow the caller")
	}
	if !c.Caps.Has(vfs.CapFsetid) {
		t.Fatal("server must retain CAP_FSETID (the #375 failure mechanism)")
	}
}

func TestUnmountStopsServer(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	conn, srv := Mount(memfs.New(memfs.Options{}), clock, model, DefaultMountOptions())
	cli := vfs.NewClient(conn, vfs.Root())
	cli.WriteFile("/f", []byte("x"), 0o644)
	conn.Unmount()
	srv.Wait()
	if srv.Served() == 0 {
		t.Fatal("server should have processed requests")
	}
	conn.Unmount() // idempotent
}

func TestWireProtocolHeaderRoundTrip(t *testing.T) {
	w := &buf{}
	encodeReqHeader(w, OpLookup, 42, 7, vfs.NewOp(nil, vfs.User(10, 20)))
	w.str("name")
	frame := finishFrame(w)
	var h ReqHeader
	var r rdr
	if err := decodeReqHeader(frame, &h, &r); err != nil {
		t.Fatal(err)
	}
	if h.Opcode != OpLookup || h.Unique != 42 || h.NodeID != 7 || h.UID != 10 || h.GID != 20 {
		t.Fatalf("header = %+v", h)
	}
	if r.str() != "name" {
		t.Fatal("payload mismatch")
	}
}

func TestWireProtocolReplyRoundTrip(t *testing.T) {
	w := &buf{}
	beginReply(w)
	w.b = append(w.b, "body"...)
	unique, errno, body, err := decodeReply(finishReply(w, 9, vfs.ENOENT))
	if err != nil {
		t.Fatal(err)
	}
	if unique != 9 || errno != vfs.ENOENT || string(body) != "body" {
		t.Fatalf("reply = %d %v %q", unique, errno, body)
	}
}

func TestWireProtocolRejectsTruncatedFrames(t *testing.T) {
	var h ReqHeader
	var r rdr
	if err := decodeReqHeader([]byte{1, 2, 3}, &h, &r); err == nil {
		t.Fatal("short request accepted")
	}
	if _, _, _, err := decodeReply([]byte{1}); err == nil {
		t.Fatal("short reply accepted")
	}
	w := &buf{}
	encodeReqHeader(w, OpLookup, 1, 1, nil)
	frame := finishFrame(w)
	frame = append(frame, 0xFF) // length mismatch
	if err := decodeReqHeader(frame, &h, &r); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAttrEncodingRoundTrip(t *testing.T) {
	in := vfs.Attr{
		Ino: 99, Type: vfs.TypeSymlink, Mode: 0o4755, Nlink: 3,
		UID: 1, GID: 2, Rdev: 0x0105, Size: 12345, Blocks: 24,
		Atime: time.Unix(100, 1), Mtime: time.Unix(200, 2), Ctime: time.Unix(300, 3),
	}
	w := &buf{}
	encodeAttr(w, &in)
	out := decodeAttr(&rdr{b: w.b})
	if out.Ino != in.Ino || out.Type != in.Type || out.Mode != in.Mode ||
		out.Nlink != in.Nlink || out.Size != in.Size || out.Rdev != in.Rdev ||
		!out.Mtime.Equal(in.Mtime) {
		t.Fatalf("attr round trip: %+v != %+v", out, in)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpLookup.String() != "LOOKUP" || Opcode(9999).String() != "UNKNOWN" {
		t.Fatal("opcode names")
	}
	// 26 is Linux's FUSE_INIT, which this protocol does not carry.
	if got := Opcode(26).String(); got != "UNKNOWN" {
		t.Fatalf("opcode 26 = %q, want UNKNOWN", got)
	}
}
