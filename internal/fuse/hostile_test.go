package fuse

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// groupSpy records how many supplementary groups the server-side
// filesystem saw on the last Lookup.
type groupSpy struct {
	vfs.FS
	groups atomic.Int64
}

func (g *groupSpy) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	g.groups.Store(int64(len(op.Cred.Groups)))
	return g.FS.Lookup(op, parent, name)
}

// hostileReplies are the reply rows of TestHostileCountsYieldErrno: a
// listing that declares 2^31-1 entries and carries none. FuzzReply starts
// from them too.
var hostileReplies = []struct {
	name   string
	opcode Opcode
	body   []byte
}{
	{"READDIR reply declaring 2^31 entries", OpReaddir, binary.LittleEndian.AppendUint32(nil, 0x7fffffff)},
	{"LISTXATTR reply declaring 2^31 names", OpListxattr, binary.LittleEndian.AppendUint32(nil, 0x7fffffff)},
}

// TestHostileCountsYieldErrno: every count the wire declares is bounded
// by the bytes that follow it. Each row is a frame whose declared count
// is not — a group list longer than the old fixed cap, a forget batch of
// 2^31 entries in 52 bytes, a 4 GiB read, a directory or xattr listing of
// 2^31 entries in 4 bytes — and each must be answered with an errno at
// once, without allocating by the declared count, and the mount's one
// worker must serve the next request as usual.
func TestHostileCountsYieldErrno(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 1 // the worker a hostile frame wedges is the only one
	opts.EntryTimeout, opts.AttrTimeout = 0, 0
	spy := &groupSpy{FS: memfs.New(memfs.Options{})}
	conn, srv := Mount(spy, sim.NewClock(), sim.DefaultCostModel(), opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	root := vfs.RootOp()
	if _, _, err := conn.Create(root, vfs.RootIno, "f", 0o644, vfs.ORdwr); err != nil {
		t.Fatal(err)
	}

	// raw pushes a hand-built two-way frame (anonymous header, then
	// payload) and returns the errno of the server's reply.
	raw := func(opcode Opcode, payload func(w *buf)) vfs.Errno {
		p := newRequest(conn, 0, 0)
		encodeReqHeader(&p.frame, opcode, conn.unique.Add(1), uint64(vfs.RootIno), nil)
		payload(&p.frame)
		finishFrame(&p.frame)
		if !conn.table.push(0, p) {
			t.Fatal("push on a live table failed")
		}
		_, errno, _, err := decodeReply(<-p.reply)
		if err != nil {
			t.Fatalf("malformed reply: %v", err)
		}
		p.release()
		return errno
	}

	type hostileCase struct {
		name string
		want vfs.Errno
		run  func(t *testing.T) error
	}
	cases := []hostileCase{
		{"300 supplementary groups", vfs.OK, func(t *testing.T) error {
			groups := make([]uint32, 300)
			for i := range groups {
				groups[i] = uint32(1000 + i)
			}
			_, err := conn.Lookup(vfs.NewOp(nil, vfs.User(0, 0, groups...)), vfs.RootIno, "f")
			if got := spy.groups.Load(); got != 300 {
				t.Errorf("server saw %d supplementary groups, want 300", got)
			}
			return err
		}},
		{"group count past the frame", vfs.EINVAL, func(t *testing.T) error {
			// The anonymous header ends in ngroups = 0: overwrite it.
			return raw(OpLookup, func(w *buf) {
				w.b = w.b[:len(w.b)-4]
				w.u32(0x7fffffff)
				w.str("f")
			})
		}},
		{"BATCH_FORGET of 2^31 in 52 bytes", vfs.EINVAL, func(t *testing.T) error {
			return raw(OpBatchForget, func(w *buf) { w.u32(0x7fffffff) })
		}},
		{"READ of 4 GiB", vfs.EINVAL, func(t *testing.T) error {
			return raw(OpRead, func(w *buf) {
				w.u64(1)
				w.i64(0)
				w.u32(0xffffffff)
			})
		}},
	}
	for _, r := range hostileReplies {
		cases = append(cases, hostileCase{r.name, vfs.EIO, func(t *testing.T) error {
			_, _, err := replyCalls[replyIndex(r.opcode)].call(replyingMount(t, func(h *ReqHeader, w *buf) { w.b = append(w.b, r.body...) }))
			return err
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			err := tc.run(t)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if got := vfs.ToErrno(err); got != tc.want {
				t.Errorf("errno = %v, want %v", got, tc.want)
			}
			if elapsed > time.Second {
				t.Errorf("answered after %v: the declared count was looped over", elapsed)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Errorf("allocated %d bytes: the declared count was allocated for", grown)
			}
			if _, err := conn.Getattr(root, vfs.RootIno); err != nil {
				t.Errorf("the worker's next request after the hostile frame: %v", err)
			}
		})
	}
}
