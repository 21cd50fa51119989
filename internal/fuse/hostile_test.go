package fuse

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// groupSpy records how many supplementary groups the server-side
// filesystem saw on the last Lookup, and counts its Write calls.
type groupSpy struct {
	vfs.FS
	groups atomic.Int64
	writes atomic.Int64
}

func (g *groupSpy) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	g.groups.Store(int64(len(op.Cred.Groups)))
	return g.FS.Lookup(op, parent, name)
}

func (g *groupSpy) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	g.writes.Add(1)
	return g.FS.Write(op, h, off, data)
}

// rawFrame pushes a hand-built two-way frame on nodeid (anonymous header,
// then payload) and returns the errno of the server's reply.
func rawFrame(t *testing.T, conn *Conn, opcode Opcode, nodeid vfs.Ino, payload func(w *buf)) vfs.Errno {
	t.Helper()
	p := newRequest(conn, 0, 0)
	encodeReqHeader(&p.frame, opcode, conn.unique.Add(1), uint64(nodeid), nil)
	payload(&p.frame)
	finishFrame(&p.frame)
	if !conn.table.push(p) {
		t.Fatal("push on a live table failed")
	}
	_, errno, _, err := decodeReply(<-p.reply)
	if err != nil {
		t.Fatalf("malformed reply: %v", err)
	}
	p.release()
	return errno
}

// hostileCopies is how many copies of its payload a frame that carries
// one may allocate for: the payload it is built from, the frame, and the
// filesystem's copy.
const hostileCopies = 3

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
// worker must serve the next request as usual. A WRITE is bounded by the
// negotiated MaxWrite as a READ is, as Linux's fuse_dev_do_read never
// hands a server more: one byte past it is EINVAL and reaches no Write
// call. A row that carries a payload may allocate hostileCopies of it.
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
	_, fh, err := conn.Create(root, vfs.RootIno, "f", 0o644, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}

	raw := func(opcode Opcode, payload func(w *buf)) vfs.Errno {
		return rawFrame(t, conn, opcode, vfs.RootIno, payload)
	}

	// write sends a WRITE of n bytes on f's handle; it must reach the
	// filesystem's Write exactly calls times.
	write := func(n int, calls int64) func(t *testing.T) error {
		return func(t *testing.T) error {
			before := spy.writes.Load()
			errno := raw(OpWrite, func(w *buf) {
				w.u64(uint64(fh))
				w.i64(0)
				w.bytes(make([]byte, n))
			})
			if got := spy.writes.Load() - before; got != calls {
				t.Errorf("%d Write calls reached the filesystem, want %d", got, calls)
			}
			return errno
		}
	}

	type hostileCase struct {
		name    string
		want    vfs.Errno
		run     func(t *testing.T) error
		carried int // payload bytes the frame carries
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
		}, 0},
		{"group count past the frame", vfs.EINVAL, func(t *testing.T) error {
			// The anonymous header ends in ngroups = 0: overwrite it.
			return raw(OpLookup, func(w *buf) {
				w.b = w.b[:len(w.b)-4]
				w.u32(0x7fffffff)
				w.str("f")
			})
		}, 0},
		{"BATCH_FORGET of 2^31 in 52 bytes", vfs.EINVAL, func(t *testing.T) error {
			return raw(OpBatchForget, func(w *buf) { w.u32(0x7fffffff) })
		}, 0},
		{"READ of 4 GiB", vfs.EINVAL, func(t *testing.T) error {
			return raw(OpRead, func(w *buf) {
				w.u64(1)
				w.i64(0)
				w.u32(0xffffffff)
			})
		}, 0},
		{"WRITE of MaxWrite bytes", vfs.OK, write(opts.MaxWrite, 1), opts.MaxWrite},
		{"WRITE of MaxWrite+1 bytes", vfs.EINVAL, write(opts.MaxWrite+1, 0), opts.MaxWrite + 1},
	}
	for _, r := range hostileReplies {
		cases = append(cases, hostileCase{r.name, vfs.EIO, func(t *testing.T) error {
			_, _, err := replyCalls[replyIndex(r.opcode)].call(replyingMount(t, func(h *ReqHeader, w *buf) { w.b = append(w.b, r.body...) }))
			return err
		}, 0})
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
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20+hostileCopies*uint64(tc.carried) {
				t.Errorf("allocated %d bytes: the declared count was allocated for", grown)
			}
			if _, err := conn.Getattr(root, vfs.RootIno); err != nil {
				t.Errorf("the worker's next request after the hostile frame: %v", err)
			}
		})
	}
}

// TestHostileDirectoryFrames: on a server that answers OPENDIR itself
// (MountOptions.NoOpendir), an OPENDIR and a READDIR with fh 0 are frames
// a hostile kernel side can aim anywhere. OPENDIR is ENOSYS for a
// directory and ENOTDIR for anything else; a READDIR with fh 0 on a
// regular file, on a nodeid the server does not know or at a negative
// offset is answered as the filesystem answers it. No row may leave a
// host directory handle open: the server closes the one it opened on
// every path. A READDIRPLUS is answered as a READDIR on the same fh and
// nodeid is, except that on nodeid 0, under which it could look nothing
// up, it is EINVAL without a filesystem call.
func TestHostileDirectoryFrames(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 1
	counter := &callCounter{}
	host := memfs.New(memfs.Options{})
	conn, srv := Mount(vfs.Chain(host, counter), sim.NewClock(), sim.DefaultCostModel(), opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	hostCli := vfs.NewClient(host, vfs.Root())
	if err := hostCli.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := hostCli.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	readdir := func(off int64) func(w *buf) {
		return func(w *buf) {
			w.u64(0)
			w.i64(off)
		}
	}
	for _, row := range []struct {
		name    string
		opcode  Opcode
		nodeid  vfs.Ino
		payload func(w *buf)
		want    vfs.Errno
	}{
		{"OPENDIR of a directory", OpOpendir, vfs.RootIno, func(w *buf) {}, vfs.ENOSYS},
		{"OPENDIR of a file", OpOpendir, file.Ino, func(w *buf) {}, vfs.ENOTDIR},
		{"READDIR fh 0 of a file", OpReaddir, file.Ino, readdir(0), vfs.ENOTDIR},
		{"READDIR fh 0 of an unknown nodeid", OpReaddir, 1 << 40, readdir(0), vfs.ESTALE},
		{"READDIR fh 0 at a negative offset", OpReaddir, vfs.RootIno, readdir(-1), vfs.OK},
		{"READDIR fh 0 of a directory", OpReaddir, vfs.RootIno, readdir(0), vfs.OK},
		{"READDIRPLUS fh 0 of a file", OpReaddirplus, file.Ino, readdir(0), vfs.ENOTDIR},
		{"READDIRPLUS fh 0 of an unknown nodeid", OpReaddirplus, 1 << 40, readdir(0), vfs.ESTALE},
		{"READDIRPLUS on nodeid 0", OpReaddirplus, 0, readdir(0), vfs.EINVAL},
		{"READDIRPLUS fh 0 of a directory", OpReaddirplus, vfs.RootIno, readdir(0), vfs.OK},
	} {
		t.Run(row.name, func(t *testing.T) {
			calls := counter.n.Load()
			if got := rawFrame(t, conn, row.opcode, row.nodeid, row.payload); got != row.want {
				t.Errorf("errno %v, want %v", got, row.want)
			}
			if row.nodeid == 0 && counter.n.Load() != calls {
				t.Errorf("%d filesystem calls, want none", counter.n.Load()-calls)
			}
			if open := counter.openDirs.Load(); open != 0 {
				t.Errorf("%d host directory handles left open", open)
			}
		})
	}
}

// TestReadlinkReplyCapped: a READLINK reply is a target of at most
// vfs.MaxPathLen-1 bytes, what the kernel's one-page buffer holds beside
// its NUL. One of 4 095 bytes is served whole; one of 4 096 or 8 192 is
// EIO, and the next request on the connection is served.
func TestReadlinkReplyCapped(t *testing.T) {
	for _, n := range []int{vfs.MaxPathLen - 1, vfs.MaxPathLen, 2 * vfs.MaxPathLen} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			body := readlinkReply(n)
			c := replyingMount(t, func(h *ReqHeader, w *buf) {
				if h.Opcode == OpReadlink {
					w.b = append(w.b, body...)
				}
			})
			target, err := c.Readlink(vfs.RootOp(), 7)
			if n < vfs.MaxPathLen {
				if err != nil || len(target) != n {
					t.Fatalf("a %d-byte target: %d bytes, %v", n, len(target), err)
				}
			} else if vfs.ToErrno(err) != vfs.EIO || target != "" {
				t.Fatalf("a %d-byte target: %d bytes, %v; want none and EIO", n, len(target), err)
			}
			if err := c.Access(vfs.RootOp(), vfs.RootIno, vfs.AccessRead); err != nil {
				t.Fatalf("the next request failed: %v", err)
			}
		})
	}
}
