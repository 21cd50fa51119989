package fuse

import (
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// replyingMount returns a Conn whose "server" answers every two-way
// request with success and whatever body writes: the harness for feeding
// the kernel-side decoders frames a real server would never send.
func replyingMount(t *testing.T, body func(h *ReqHeader, w *buf)) *Conn {
	t.Helper()
	table := newReqTable(256)
	conn := newConn(sim.NewClock(), sim.DefaultCostModel(), DefaultMountOptions(), table)
	go func() {
		for {
			msg, ok := table.pop()
			if !ok {
				return
			}
			var h ReqHeader
			decodeReqHeader(msg.frame.b, &h, &rdr{})
			w := &buf{}
			beginReply(w)
			body(&h, w)
			table.done(msg.unique)
			if !msg.oneWay {
				msg.reply <- finishReply(w, h.Unique, vfs.OK)
			}
		}
	}()
	t.Cleanup(conn.Unmount)
	return conn
}

// truncatingMount returns a Conn whose "server" answers every request
// with success and a body cut short: the well-formed attribute reply
// minus its last byte, or for short a length-prefixed string that claims
// more bytes than follow.
func truncatingMount(t *testing.T) *Conn {
	return replyingMount(t, func(h *ReqHeader, w *buf) {
		if h.Opcode == OpReadlink {
			w.u32(64)
			w.b = append(w.b, "short"...)
		} else {
			encodeAttr(w, &vfs.Attr{Ino: 7, Type: vfs.TypeRegular, Nlink: 1})
			w.b = w.b[:len(w.b)-1]
		}
	})
}

// TestTruncatedEntryRepliesAreEIO feeds every decoder of an entry or
// string reply a success frame with a truncated body: the wire format is
// a trust boundary, so the answer is EIO and neither the dentry cache nor
// the attribute cache learns anything from the frame.
func TestTruncatedEntryRepliesAreEIO(t *testing.T) {
	op := vfs.RootOp()
	cases := []struct {
		name string
		call func(c *Conn) error
	}{
		{"Lookup", func(c *Conn) error { _, err := c.Lookup(op, vfs.RootIno, "n"); return err }},
		{"Mknod", func(c *Conn) error {
			_, err := c.Mknod(op, vfs.RootIno, "n", vfs.TypeRegular, 0o644, 0)
			return err
		}},
		{"Mkdir", func(c *Conn) error { _, err := c.Mkdir(op, vfs.RootIno, "n", 0o755); return err }},
		{"Symlink", func(c *Conn) error { _, err := c.Symlink(op, vfs.RootIno, "n", "target"); return err }},
		{"Link", func(c *Conn) error { _, err := c.Link(op, 7, vfs.RootIno, "n"); return err }},
		{"Readlink", func(c *Conn) error { _, err := c.Readlink(op, 7); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := truncatingMount(t)
			if err := tc.call(c); vfs.ToErrno(err) != vfs.EIO {
				t.Fatalf("truncated reply: err = %v, want EIO", err)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if len(c.entries) != 0 || len(c.attrs) != 0 {
				t.Fatalf("truncated reply was cached: entries %v, attrs %v", c.entries, c.attrs)
			}
		})
	}
}

// requestCorpus is one well-formed request frame per opcode a Conn sends:
// the golden frames of wire_test.go, then every other operation's frame as
// a Conn encodes it, captured off the queue by a "server" that answers
// EIO to everything (an ENOSYS to OPEN would have the Conn open the file
// itself, with a GETATTR, from then on).
func requestCorpus(t testing.TB) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, g := range slices.Concat(wireGolden, wireGoldenReaddirPlus) {
		if hexFrame, ok := strings.CutPrefix(g, "> "); ok {
			frame, err := hex.DecodeString(hexFrame)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
	}
	opts := DefaultMountOptions()
	table := newReqTable(256)
	conn := newConn(sim.NewClock(), sim.DefaultCostModel(), opts, table)
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			msg, ok := table.pop()
			if !ok {
				return
			}
			frames = append(frames, append([]byte(nil), msg.frame.b...))
			table.done(msg.unique)
			if msg.oneWay {
				msg.release()
				continue
			}
			var h ReqHeader
			decodeReqHeader(msg.frame.b, &h, &rdr{})
			w := &buf{}
			beginReply(w)
			msg.reply <- finishReply(w, h.Unique, vfs.EIO)
		}
	}()
	op, root := vfs.RootOp(), vfs.RootIno
	conn.Setattr(op, 7, vfs.SetMode, vfs.Attr{Mode: 0o600})
	conn.Mknod(op, root, "n", vfs.TypeFIFO, 0o644, 0)
	conn.Mkdir(op, root, "d", 0o755)
	conn.Symlink(op, root, "s", "target")
	conn.Unlink(op, root, "n")
	conn.Rmdir(op, root, "d")
	conn.Rename(op, root, "a", root, "b", 0)
	conn.Link(op, 7, root, "l")
	conn.Open(op, 7, vfs.ORdwr)
	conn.Flush(op, 1)
	conn.Fsync(op, 1, true)
	conn.Setxattr(op, 7, "user.k", []byte("v"), 0)
	conn.Getxattr(op, 7, "user.k")
	conn.Removexattr(op, 7, "user.k")
	conn.Access(op, 7, vfs.AccessRead)
	conn.Fallocate(op, 1, 0, 0, 4096)
	// A FORGET frame of its own, built by hand: a mount batches forgets.
	conn.oneWay(OpForget, 7, 0, func(w *buf) { w.u64(1) })
	conn.Unmount()
	<-served
	return frames
}

// callCounter counts every call that reaches the filesystem under it, and
// the directory handles it holds open (opened and not yet released).
type callCounter struct{ n, openDirs atomic.Int64 }

func (c *callCounter) Intercept(info *vfs.OpInfo, next func() error) error {
	c.n.Add(1)
	err := next()
	if err == nil && info.Kind == vfs.KindOpendir {
		c.openDirs.Add(1)
	} else if err == nil && info.Kind == vfs.KindReleasedir {
		c.openDirs.Add(-1)
	}
	return err
}

// TestTruncatedRequestsNeverReachTheFilesystem cuts every frame of the
// request corpus at every length below its own — with the length field
// left as it was, and patched to the new length so the header still
// agrees with the frame — and dispatches it: the answer is EINVAL (a
// FORGET has none), and the filesystem under the server is never called
// with the zero values a short body decodes to.
func TestTruncatedRequestsNeverReachTheFilesystem(t *testing.T) {
	opts := PaperMountOptions() // a NoFlush server would answer FLUSH itself
	opts.ServerThreads = 0      // dispatch by hand
	calls := &callCounter{}
	fs := vfs.Chain(memfs.New(memfs.Options{}), calls)
	srv := newServer(fs, sim.NewClock(), sim.DefaultCostModel(), opts, newReqTable(256))
	wk := &worker{s: srv}
	opcodes := map[Opcode]bool{}
	for _, frame := range requestCorpus(t) {
		opcode := Opcode(binary.LittleEndian.Uint32(frame[4:]))
		opcodes[opcode] = true
		for cut := 0; cut < len(frame); cut++ {
			for _, patched := range []bool{false, true} {
				short := append([]byte(nil), frame[:cut]...)
				if patched && cut >= 4 {
					binary.LittleEndian.PutUint32(short, uint32(cut))
				}
				reply := wk.dispatch(&request{frame: buf{b: short}})
				if reply == nil {
					if opcode != OpForget {
						t.Fatalf("%v cut at %d of %d (length patched: %v): no reply", opcode, cut, len(frame), patched)
					}
				} else if _, errno, _, err := decodeReply(reply); err != nil || errno != vfs.EINVAL {
					t.Fatalf("%v cut at %d of %d (length patched: %v): errno %v, %v; want EINVAL", opcode, cut, len(frame), patched, errno, err)
				}
				if n := calls.n.Load(); n != 0 {
					t.Fatalf("%v cut at %d of %d (length patched: %v): the filesystem was called", opcode, cut, len(frame), patched)
				}
			}
		}
		if wk.dispatch(&request{frame: buf{b: frame}}); calls.n.Swap(0) == 0 {
			t.Fatalf("%v: the whole frame did not reach the filesystem", opcode)
		}
	}
	if len(opcodes) != 27 {
		t.Fatalf("corpus covers %d opcodes, want the 27 a Conn sends with a body: %v", len(opcodes), opcodes)
	}
}
