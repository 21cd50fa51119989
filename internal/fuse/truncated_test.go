package fuse

import (
	"testing"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// replyingMount returns a Conn whose "server" answers every two-way
// request with success and whatever body writes: the harness for feeding
// the kernel-side decoders frames a real server would never send.
func replyingMount(t *testing.T, body func(h *ReqHeader, w *buf)) *Conn {
	t.Helper()
	table := newReqTable(256, 0, 1, nil, 1)
	conn := newConn(sim.NewClock(), sim.DefaultCostModel(), DefaultMountOptions(), table)
	go func() {
		for {
			msg, origin, ok := table.pop(0)
			if !ok {
				return
			}
			var h ReqHeader
			decodeReqHeader(msg.frame.b, &h, &rdr{})
			w := &buf{}
			beginReply(w)
			body(&h, w)
			table.done(origin, 0, 0, false, false)
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
