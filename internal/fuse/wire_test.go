package fuse

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// wireGolden is every frame of the op sequence in TestWireBytesUnchanged,
// request (>) and reply (<), captured at commit 1c78124 — the last one
// that encoded a frame into fresh buffers and copied every reply — with
// the header's pid slot since read as 0: a request carries no process id.
var wireGolden = []string{
	// LOOKUP "f" under root, groups {5, 6}: ENOENT
	"> 390000000100000001000000000000000100000000000000000000000000000000000000000000000200000005000000060000000100000066",
	"< 10000000020000000100000000000000",
	// CREATE "f" 0644 O_RDWR: attr + handle
	"> 410000002300000002000000000000000100000000000000000000000000000000000000000000000200000005000000060000000100000066a401000002000000",
	"< 5d000000000000000200000000000000020000000000000000000000000000000000000000000000d00735c867274015d00735c867274015d00735c867274015a401000000010000000000000000000000000000000100000000000000",
	// WRITE 32 bytes at 0
	"> 6800000010000000030000000000000000000000000000000000000000000000000000000000000002000000050000000600000001000000000000000000000000000000200000007769726577697265776972657769726577697265776972657769726577697265",
	"< 1400000000000000030000000000000020000000",
	// READ 64 bytes at 0: the 32 that are there
	"> 480000000f00000004000000000000000000000000000000000000000000000000000000000000000200000005000000060000000100000000000000000000000000000040000000",
	"< 34000000000000000400000000000000200000007769726577697265776972657769726577697265776972657769726577697265",
	// OPENDIR root
	"> 340000001b0000000500000000000000010000000000000000000000000000000000000000000000020000000500000006000000",
	"< 180000000000000005000000000000000200000000000000",
	// READDIR: ".", "..", "f"
	"> 440000001c000000060000000000000000000000000000000000000000000000000000000000000002000000050000000600000002000000000000000000000000000000",
	"< 5700000000000000060000000000000003000000010000002e0100000000000000010100000000000000020000002e2e010000000000000001020000000000000001000000660200000000000000000300000000000000",
	// RELEASEDIR, RELEASE, BATCH_FORGET {2:1, 1:2}: one-way, anonymous
	"> 340000001d0000000700000000000000000000000000000000000000000000000000000000000000000000000200000000000000",
	"> 34000000120000000800000000000000000000000000000000000000000000000000000000000000000000000100000000000000",
	"> 500000002a000000090000000000000000000000000000000000000000000000000000000000000000000000020000000200000000000000010000000000000001000000000000000200000000000000",
}

// wireGoldenNoOpendir is the frames a NoOpendir mount (MountOptions)
// sends to list the root the first time, pinned as first encoded: the
// OPENDIR the server answers ENOSYS, the GETATTR the connection checks the
// directory's type and mode with, and the READDIR that carries fh 0 and
// names the directory by its nodeid (1) in the header.
var wireGoldenNoOpendir = []string{
	// OPENDIR root: ENOSYS
	"> 340000001b0000000100000000000000010000000000000000000000000000000000000000000000020000000500000006000000",
	"< 10000000260000000100000000000000",
	// GETATTR root
	"> 34000000030000000200000000000000010000000000000000000000000000000000000000000000020000000500000006000000",
	"< 55000000000000000200000000000000010000000000000000000000000000000000000000000000e80335c867274015e80335c867274015e80335c867274015ed0100000102000000000000000000000000000000",
	// READDIR fh 0 on nodeid 1: ".", ".."
	"> 440000001c000000030000000000000001000000000000000000000000000000000000000000000002000000050000000600000000000000000000000000000000000000",
	"< 4100000000000000030000000000000002000000010000002e0100000000000000010100000000000000020000002e2e0100000000000000010200000000000000",
}

// wireGoldenReaddirPlus is the READDIRPLUS a ReaddirPlus mount sends to
// list the root, holding the file "f", from the start, and its reply,
// pinned as first encoded: fh 0 on nodeid 1, cookie 0; then ".", ".."
// and "f", each entry followed by its attribute record, all zero for the
// two the server does not look up, and f's from the server's lookup.
var wireGoldenReaddirPlus = []string{
	// READDIRPLUS fh 0 on nodeid 1, from cookie 0
	"> 440000002c000000050000000000000001000000000000000000000000000000000000000000000002000000050000000600000000000000000000000000000000000000",
	// ".", ".." without attributes; "f" with inode 2's
	"< 2601000000000000050000000000000003000000010000002e0100000000000000010100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020000002e2e010000000000000001020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000660200000000000000000300000000000000020000000000000000000000000000000000000000000000d00735c867274015d00735c867274015d00735c867274015a40100000001000000000000000000000000000000",
}

// TestWireBytesUnchanged replays a fixed op sequence over a connection
// whose only "worker" is this test's loop, and compares every frame that
// crosses the queue, in either direction, with bytes captured before the
// transport recycled its buffers: the wire format is the trust boundary,
// and host-side recycling must not move a byte of it. The sequence lists
// a directory through a server handle (NoOpendir off); a second sequence
// pins the frames of a listing by nodeid, wireGoldenNoOpendir, both with
// ReaddirPlus off; a third the READDIRPLUS of a listing from the start,
// wireGoldenReaddirPlus.
func TestWireBytesUnchanged(t *testing.T) {
	opts := DefaultMountOptions()
	opts.EntryTimeout, opts.AttrTimeout = 0, 0 // forgets are not withheld
	opts.NoOpendir = false                     // OPENDIR, READDIR on its handle, RELEASEDIR
	opts.ReaddirPlus = false                   // and no READDIRPLUS
	cred := vfs.Root()
	cred.Groups = []uint32{5, 6}
	op := vfs.NewOp(nil, cred)
	frames := captureWire(t, opts, func(conn *Conn, step func()) {
		// Each step waits for the loop to have served the frame, so
		// one-way frames land in submission order.
		if _, err := conn.Lookup(op, vfs.RootIno, "f"); vfs.ToErrno(err) != vfs.ENOENT {
			t.Fatal(err)
		}
		step()
		attr, h, err := conn.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		step()
		data := bytes.Repeat([]byte("wire"), 8)
		if n, err := conn.Write(op, h, 0, data); err != nil || n != len(data) {
			t.Fatal(n, err)
		}
		step()
		got := make([]byte, 64)
		if n, err := conn.Read(op, h, 0, got); err != nil || !bytes.Equal(got[:n], data) {
			t.Fatal(n, err)
		}
		step()
		dh, err := conn.Opendir(op, vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		step()
		if ents, err := conn.Readdir(op, dh, 0); err != nil || len(ents) != 3 {
			t.Fatal(ents, err)
		}
		step()
		conn.Releasedir(op, dh)
		step()
		conn.Release(op, h)
		step()
		conn.Forget(op, attr.Ino, 1)
		conn.Forget(op, vfs.RootIno, 2)
		conn.Unmount() // flushes the two forgets as one BATCH_FORGET
	})
	compareWire(t, frames, wireGolden)

	opts = DefaultMountOptions() // NoOpendir, with the caches it needs
	opts.ReaddirPlus = false
	frames = captureWire(t, opts, func(conn *Conn, step func()) {
		dh, err := conn.Opendir(op, vfs.RootIno)
		if err != nil || dh&localHandle == 0 {
			t.Fatalf("opendir: handle %#x, %v; want one of the connection's own", dh, err)
		}
		step() // OPENDIR
		step() // GETATTR
		if ents, err := conn.Readdir(op, dh, 0); err != nil || len(ents) != 2 {
			t.Fatal(ents, err)
		}
		step()
		conn.Releasedir(op, dh) // sends nothing
		conn.Unmount()
	})
	compareWire(t, frames, wireGoldenNoOpendir)

	frames = captureWire(t, DefaultMountOptions(), func(conn *Conn, step func()) {
		_, h, err := conn.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		step()
		conn.Release(op, h)
		step()
		dh, err := conn.Opendir(op, vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		step() // OPENDIR
		step() // GETATTR
		if ents, err := conn.Readdir(op, dh, 0); err != nil || len(ents) != 3 {
			t.Fatal(ents, err)
		}
		step() // READDIRPLUS
		step() // READDIR from f's cookie: the empty reply
		conn.Releasedir(op, dh)
		conn.Unmount()
	})
	compareWire(t, opcodePair(t, frames, OpReaddirplus), wireGoldenReaddirPlus)
}

// opcodePair returns the one request with opcode among frames, and the
// reply that follows it.
func opcodePair(t *testing.T, frames []string, opcode Opcode) []string {
	t.Helper()
	var pair []string
	for i, f := range frames {
		if b, err := hex.DecodeString(f[2:]); err == nil && f[0] == '>' && Opcode(binary.LittleEndian.Uint32(b[4:])) == opcode && i+1 < len(frames) {
			pair = append(pair, f, frames[i+1])
		}
	}
	if len(pair) != 2 {
		t.Fatalf("%d %v requests with a reply crossed the queue, want 1:\n%q", len(pair)/2, opcode, frames)
	}
	return pair
}

// captureWire runs script over a connection with opts whose only
// "worker" is a loop of this test's, and returns every frame that crossed
// the queue in either direction. script's step waits for the loop to have
// served one frame; script ends with the unmount.
func captureWire(t *testing.T, opts MountOptions, script func(conn *Conn, step func())) []string {
	clock, model := sim.NewClock(), sim.DefaultCostModel()
	opts.ServerThreads = 0 // no workers: the loop below serves
	table := newReqTable(256)
	conn := newConn(clock, model, opts, table)
	srv := newServer(memfs.New(memfs.Options{}), clock, model, opts, table)

	var frames []string
	step := make(chan struct{}, 64)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		wk := &worker{s: srv}
		for {
			msg, ok := table.pop()
			if !ok {
				return
			}
			frames = append(frames, "> "+hex.EncodeToString(msg.frame.b))
			reply := wk.dispatch(msg)
			table.done(msg.unique)
			if msg.oneWay {
				msg.release()
			} else {
				frames = append(frames, "< "+hex.EncodeToString(reply))
				msg.out = reply
				msg.reply <- reply
			}
			step <- struct{}{}
		}
	}()

	script(conn, func() { <-step })
	<-exited
	return frames
}

// compareWire compares the captured frames with the pinned ones.
func compareWire(t *testing.T, frames, golden []string) {
	t.Helper()
	if len(frames) != len(golden) {
		t.Fatalf("%d frames crossed the queue, want %d:\n%q", len(frames), len(golden), frames)
	}
	for i, want := range golden {
		if frames[i] != want {
			t.Errorf("frame %d\n got %s\nwant %s", i, frames[i], want)
		}
	}
}
