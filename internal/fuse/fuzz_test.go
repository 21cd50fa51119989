package fuse

import (
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// FuzzDispatch: a request frame is a trust boundary, so whatever its bytes
// the server answers without panicking. Every reply decodes and echoes the
// frame's unique; only a one-way opcode gets none. A frame shorter than the
// header, or whose length field is not its size, is answered EINVAL and
// reaches no filesystem call. A data frame on fh 0 names its inode
// (MountOptions.NoOpen): one naming an inode the filesystem does not know
// leaves no host descriptor open. So does a READDIR on fh 0
// (MountOptions.NoOpendir): whatever it names, it leaves no host directory
// handle open, and a READDIRPLUS on nodeid 0 is EINVAL and reaches no
// filesystem call. The seeds are requestCorpus, one frame per opcode a
// Conn sends with a body, fh-0 READ, WRITE, FSYNC, READDIR and READDIRPLUS
// frames naming an unknown inode, fh-0 READDIR and READDIRPLUS frames on
// the root from the start and from a negative offset, a READDIRPLUS on
// nodeid 0, an OPENDIR of the root (ENOSYS), WRITE frames at the
// negotiated MaxWrite and one byte past it (EINVAL), and LOOKUPs of names
// of vfs.MaxNameLen bytes and one more, on either side of what the name
// table interns; what the fuzzer found is kept as rows of
// TestDispatchFindings.
//
//	go test -run '^$' -fuzz FuzzDispatch -fuzztime 15s ./internal/fuse
func FuzzDispatch(f *testing.F) {
	for _, frame := range requestCorpus(f) {
		f.Add(frame)
	}
	const unknown = 42
	for _, body := range []struct {
		opcode Opcode
		nodeid vfs.Ino
		encode func(w *buf)
	}{
		{OpRead, unknown, func(w *buf) { w.u64(0); w.i64(0); w.u32(4096) }},
		{OpWrite, unknown, func(w *buf) { w.u64(0); w.i64(0); w.bytes([]byte("x")) }},
		{OpFsync, unknown, func(w *buf) { w.u64(0); w.u8(0) }},
		{OpWrite, unknown, func(w *buf) { w.u64(0); w.i64(0); w.bytes(make([]byte, dispatchMaxWrite)) }},
		{OpWrite, unknown, func(w *buf) { w.u64(0); w.i64(0); w.bytes(make([]byte, dispatchMaxWrite+1)) }},
		{OpReaddir, unknown, func(w *buf) { w.u64(0); w.i64(0) }},
		{OpReaddir, vfs.RootIno, func(w *buf) { w.u64(0); w.i64(0) }},
		{OpReaddir, vfs.RootIno, func(w *buf) { w.u64(0); w.i64(-1) }},
		{OpReaddirplus, unknown, func(w *buf) { w.u64(0); w.i64(0) }},
		{OpReaddirplus, vfs.RootIno, func(w *buf) { w.u64(0); w.i64(0) }},
		{OpReaddirplus, vfs.RootIno, func(w *buf) { w.u64(0); w.i64(-1) }},
		{OpReaddirplus, 0, func(w *buf) { w.u64(0); w.i64(0) }},
		{OpOpendir, vfs.RootIno, func(w *buf) {}},
		{OpLookup, vfs.RootIno, func(w *buf) { w.str(strings.Repeat("n", vfs.MaxNameLen)) }},
		{OpLookup, vfs.RootIno, func(w *buf) { w.str(strings.Repeat("n", vfs.MaxNameLen+1)) }},
	} {
		var w buf
		encodeReqHeader(&w, body.opcode, 1, uint64(body.nodeid), nil)
		body.encode(&w)
		f.Add(finishFrame(&w))
	}
	f.Fuzz(checkDispatch)
}

// dispatchMaxWrite is checkDispatch's server's MaxWrite.
var dispatchMaxWrite = PaperMountOptions().MaxWrite

// checkDispatch is FuzzDispatch's property for one input: the frame is
// dispatched by hand on a fresh server over memfs, with the recycling
// guard rail on.
func checkDispatch(t *testing.T, frame []byte) {
	was := poisonReleased.Swap(true)
	defer poisonReleased.Store(was)
	opts := PaperMountOptions() // a NoFlush server would answer FLUSH itself
	opts.NoOpen = true          // and fh 0 names an inode,
	opts.NoOpendir = true       // for READDIR too
	opts.ServerThreads = 0      // dispatch by hand
	calls := &callCounter{}
	fs := vfs.Chain(memfs.New(memfs.Options{}), calls)
	srv := newServer(fs, sim.NewClock(), sim.DefaultCostModel(), opts, newReqTable(16))
	wk := &worker{s: srv}
	reply := wk.dispatch(&request{frame: buf{b: frame}})

	malformed := len(frame) < reqHeaderLen || binary.LittleEndian.Uint32(frame) != uint32(len(frame))
	var unique, nodeid uint64
	var opcode Opcode
	if len(frame) >= reqHeaderLen {
		unique = binary.LittleEndian.Uint64(frame[8:])
		opcode = Opcode(binary.LittleEndian.Uint32(frame[4:]))
		nodeid = binary.LittleEndian.Uint64(frame[16:])
	}
	if reply == nil {
		if malformed || (opcode != OpForget && opcode != OpBatchForget && opcode != OpInterrupt) {
			t.Fatalf("%v frame of %d bytes (malformed header: %v): no reply", opcode, len(frame), malformed)
		}
		return
	}
	got, errno, _, err := decodeReply(reply)
	if err != nil {
		t.Fatalf("%v frame of %d bytes: reply of %d bytes does not decode: %v", opcode, len(frame), len(reply), err)
	}
	if got != unique {
		t.Fatalf("%v frame of %d bytes: reply echoes unique %#x, want %#x", opcode, len(frame), got, unique)
	}
	if !malformed && opcode == OpReaddirplus && nodeid == 0 {
		if errno != vfs.EINVAL || calls.n.Load() != 0 {
			t.Fatalf("READDIRPLUS on nodeid 0: errno %v after %d filesystem calls, want EINVAL after none", errno, calls.n.Load())
		}
	}
	if malformed {
		if errno != vfs.EINVAL {
			t.Fatalf("malformed header (%d bytes, length field %d): errno %v, want EINVAL", len(frame), lengthField(frame), errno)
		}
		if n := calls.n.Load(); n != 0 {
			t.Fatalf("malformed header (%d bytes, length field %d): %d filesystem calls, want none", len(frame), lengthField(frame), n)
		}
	}
	for ino := range srv.files {
		if ino != vfs.RootIno { // the one inode a fresh memfs has
			t.Fatalf("%v frame of %d bytes: a host descriptor is open for inode %d, which the filesystem does not know", opcode, len(frame), ino)
		}
	}
	if n := calls.openDirs.Load(); n != 0 {
		t.Fatalf("%v frame of %d bytes: %d host directory handles left open", opcode, len(frame), n)
	}
}

// lengthField is the frame's length field, or -1 when it is cut off.
func lengthField(frame []byte) int64 {
	if len(frame) < 4 {
		return -1
	}
	return int64(binary.LittleEndian.Uint32(frame))
}

// replyCall is one Conn call whose reply carries a body.
type replyCall struct {
	opcode Opcode
	// call makes the request; a count it reports comes with the count it
	// asked for.
	call func(c *Conn) (count, asked int, err error)
	// whole reports whether body is all of a reply to call: every field
	// there, and no count past the one asked for. Bytes after the reply
	// are ignored.
	whole func(body []byte) bool
}

// attrReplyLen is the size of an encoded attribute record.
var attrReplyLen = func() int {
	var w buf
	encodeAttr(&w, &vfs.Attr{})
	return len(w.b)
}()

// replyCalls is every call whose reply a Conn decodes.
var replyCalls = func() []replyCall {
	op := vfs.RootOp
	root := vfs.RootIno
	atLeast := func(n int) func([]byte) bool { return func(b []byte) bool { return len(b) >= n } }
	// prefixed: a length-prefixed field of at most max bytes, all there.
	prefixed := func(max int) func([]byte) bool {
		return func(b []byte) bool {
			next, ok := skipField(b, 0)
			return ok && next-4 <= max
		}
	}
	errOnly := func(err error) (int, int, error) { return 0, 0, err }
	entry := func(opcode Opcode, call func(c *Conn) (vfs.Attr, error)) replyCall {
		return replyCall{opcode, func(c *Conn) (int, int, error) {
			_, err := call(c)
			return errOnly(err)
		}, atLeast(attrReplyLen)}
	}
	const asked = 64
	return []replyCall{
		entry(OpLookup, func(c *Conn) (vfs.Attr, error) { return c.Lookup(op(), root, "n") }),
		entry(OpGetattr, func(c *Conn) (vfs.Attr, error) { return c.Getattr(op(), 7) }),
		entry(OpSetattr, func(c *Conn) (vfs.Attr, error) {
			return c.Setattr(op(), 7, vfs.SetMode, vfs.Attr{Mode: 0o600})
		}),
		entry(OpMknod, func(c *Conn) (vfs.Attr, error) { return c.Mknod(op(), root, "n", vfs.TypeRegular, 0o644, 0) }),
		entry(OpMkdir, func(c *Conn) (vfs.Attr, error) { return c.Mkdir(op(), root, "d", 0o755) }),
		entry(OpSymlink, func(c *Conn) (vfs.Attr, error) { return c.Symlink(op(), root, "s", "target") }),
		entry(OpLink, func(c *Conn) (vfs.Attr, error) { return c.Link(op(), 7, root, "l") }),
		{OpCreate, func(c *Conn) (int, int, error) {
			_, _, err := c.Create(op(), root, "f", 0o644, vfs.ORdwr)
			return errOnly(err)
		}, atLeast(attrReplyLen + 8)},
		{OpOpen, func(c *Conn) (int, int, error) {
			_, err := c.Open(op(), 7, vfs.ORdwr)
			return errOnly(err)
		}, atLeast(8)},
		{OpOpendir, func(c *Conn) (int, int, error) {
			_, err := c.Opendir(op(), root)
			return errOnly(err)
		}, atLeast(8)},
		{OpReadlink, func(c *Conn) (int, int, error) {
			_, err := c.Readlink(op(), 7)
			return errOnly(err)
		}, prefixed(vfs.MaxPathLen - 1)},
		{OpRead, func(c *Conn) (int, int, error) {
			n, err := c.Read(op(), 1, 0, make([]byte, asked))
			return n, asked, err
		}, prefixed(asked)},
		{OpWrite, func(c *Conn) (int, int, error) {
			n, err := c.Write(op(), 1, 0, make([]byte, asked))
			return n, asked, err
		}, func(b []byte) bool { return len(b) >= 4 && binary.LittleEndian.Uint32(b) <= asked }},
		{OpStatfs, func(c *Conn) (int, int, error) {
			_, err := c.Statfs(op(), root)
			return errOnly(err)
		}, atLeast(40)},
		{OpGetxattr, func(c *Conn) (int, int, error) {
			_, err := c.Getxattr(op(), 7, "user.k")
			return errOnly(err)
		}, prefixed(math.MaxInt)},
		{OpListxattr, func(c *Conn) (int, int, error) {
			names, err := c.Listxattr(op(), 7)
			return len(names), math.MaxInt, err
		}, func(b []byte) bool { return listed(b, 0) }},
		{OpReaddir, func(c *Conn) (int, int, error) {
			ents, err := c.Readdir(op(), 1, 0)
			return len(ents), math.MaxInt, err
		}, func(b []byte) bool { return listed(b, 8+1+8) }}, // name, ino, type, offset
		{OpReaddirplus, func(c *Conn) (int, int, error) {
			ents, err := c.readdirCall(op(), OpReaddirplus, root, 0, 0)
			return len(ents), math.MaxInt, err
		}, func(b []byte) bool { return listed(b, 8+1+8+attrLen) }}, // and the attributes
	}
}()

// skipField returns the offset past the length-prefixed field at b[off:],
// and whether all of it is there.
func skipField(b []byte, off int) (int, bool) {
	if len(b)-off < 4 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	if n > len(b)-off-4 {
		return 0, false
	}
	return off + 4 + n, true
}

// listed reports whether b holds a listing whole: a count, then that many
// items, each a length-prefixed name and tail more bytes.
func listed(b []byte, tail int) bool {
	if len(b) < 4 {
		return false
	}
	off := 4
	for i := binary.LittleEndian.Uint32(b); i > 0; i-- {
		next, ok := skipField(b, off)
		if !ok || len(b)-next < tail {
			return false
		}
		off = next + tail
	}
	return true
}

// FuzzReply: a reply frame is a trust boundary too, so whatever body a
// server sends with a success errno the kernel side never panics and never
// leaves a reply slot unserved. A whole reply is accepted, with no count
// past the one asked for; any other is EIO with a zero count, and the
// dentry, attribute and S_NOSEC caches learn nothing from it. The input
// picks one of replyCalls and is the body every request on a fresh
// replyingMount is answered with. The seeds are wire_test.go's reply
// frames (wireGolden's and wireGoldenReaddirPlus's), each for the request
// it answered, hostileReplies, READDIR, READDIRPLUS and LISTXATTR
// replies listing a name of vfs.MaxNameLen bytes and one of one more, and
// READLINK replies of vfs.MaxPathLen-1 and vfs.MaxPathLen bytes; what the
// fuzzer found is kept as rows of TestReplyFindings.
//
//	go test -run '^$' -fuzz FuzzReply -fuzztime 15s ./internal/fuse
func FuzzReply(f *testing.F) {
	var opcode Opcode
	for _, g := range slices.Concat(wireGolden, wireGoldenReaddirPlus) {
		frame, err := hex.DecodeString(g[2:])
		if err != nil {
			f.Fatal(err)
		}
		if g[0] == '>' {
			opcode = Opcode(binary.LittleEndian.Uint32(frame[4:]))
		} else if i := replyIndex(opcode); i >= 0 {
			f.Add(uint8(i), frame[respHeaderLen:])
		}
	}
	for _, r := range hostileReplies {
		f.Add(uint8(replyIndex(r.opcode)), r.body)
	}
	for opcode, body := range longNameReplies() {
		f.Add(uint8(replyIndex(opcode)), body)
	}
	for _, n := range []int{vfs.MaxPathLen - 1, vfs.MaxPathLen} {
		f.Add(uint8(replyIndex(OpReadlink)), readlinkReply(n))
	}
	f.Fuzz(checkReply)
}

// readlinkReply is a READLINK reply body carrying a target of n bytes.
func readlinkReply(n int) []byte {
	var w buf
	w.str(strings.Repeat("t", n))
	return w.b
}

// longNameReplies are reply bodies listing two names, of vfs.MaxNameLen
// bytes and of one more: the longest the Conn's name table interns, and
// the shortest it copies.
func longNameReplies() map[Opcode][]byte {
	names := []string{strings.Repeat("n", vfs.MaxNameLen), strings.Repeat("n", vfs.MaxNameLen+1)}
	bodies := map[Opcode][]byte{}
	for _, opcode := range []Opcode{OpReaddir, OpReaddirplus, OpListxattr} {
		var w buf
		w.u32(uint32(len(names)))
		for i, name := range names {
			if opcode == OpListxattr {
				w.str(name)
				continue
			}
			encodeDirent(&w, &vfs.Dirent{Name: name, Ino: vfs.Ino(10 + i), Type: vfs.TypeRegular, Off: int64(i + 1)})
			if opcode == OpReaddirplus {
				encodeAttr(&w, &vfs.Attr{Ino: vfs.Ino(10 + i), Type: vfs.TypeRegular, Mode: 0o644, Nlink: 1})
			}
		}
		bodies[opcode] = w.b
	}
	return bodies
}

// replyIndex is opcode's index in replyCalls, or -1.
func replyIndex(opcode Opcode) int {
	for i, rc := range replyCalls {
		if rc.opcode == opcode {
			return i
		}
	}
	return -1
}

// checkReply is FuzzReply's property for one input.
func checkReply(t *testing.T, which uint8, body []byte) {
	rc := replyCalls[int(which)%len(replyCalls)]
	c := replyingMount(t, func(h *ReqHeader, w *buf) { w.b = append(w.b, body...) })
	snapshot := func() (map[entryKey]entryVal, map[vfs.Ino]attrVal, map[vfs.Ino]time.Duration) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return maps.Clone(c.entries), maps.Clone(c.attrs), maps.Clone(c.nosec)
	}
	entries, attrs, nosec := snapshot()

	type outcome struct {
		count, asked int
		err          error
	}
	done := make(chan outcome, 1)
	go func() {
		count, asked, err := rc.call(c)
		done <- outcome{count, asked, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%v reply of %d bytes: the call never returned", rc.opcode, len(body))
	}

	if rc.whole(body) {
		if out.err != nil || out.count > out.asked {
			t.Fatalf("%v reply of %d bytes, whole: count %d of %d asked, %v", rc.opcode, len(body), out.count, out.asked, out.err)
		}
	} else {
		if vfs.ToErrno(out.err) != vfs.EIO || out.count != 0 {
			t.Fatalf("%v reply of %d bytes, not whole: count %d, %v; want 0, EIO", rc.opcode, len(body), out.count, out.err)
		}
		e, a, n := snapshot()
		if !maps.Equal(e, entries) || !maps.Equal(a, attrs) || !maps.Equal(n, nosec) {
			t.Fatalf("%v reply of %d bytes, not whole: cached entries %v, attributes %v, S_NOSEC marks %v", rc.opcode, len(body), e, a, n)
		}
	}
	if n := c.inflight.Load(); n != 0 {
		t.Fatalf("%v reply of %d bytes: %d requests still in flight", rc.opcode, len(body), n)
	}
	if err := c.Access(vfs.RootOp(), vfs.RootIno, vfs.AccessRead); err != nil {
		t.Fatalf("%v reply of %d bytes: the next request failed: %v", rc.opcode, len(body), err)
	}
}

// TestReplyFindings replays inputs FuzzReply must keep handling: an empty
// body for every call, then what the fuzzer has failed on, minimised.
func TestReplyFindings(t *testing.T) {
	for i, rc := range replyCalls {
		t.Run("empty "+rc.opcode.String(), func(t *testing.T) { checkReply(t, uint8(i), nil) })
	}
	for _, tc := range []struct {
		name   string
		opcode Opcode
		body   []byte
	}{
		// Both were accepted: Conn.Write reported the count as written,
		// and a page cache above slices its data by it.
		{"WRITE reply counting more than was sent", OpWrite, []byte("0000")},
		// Conn.Read kept the first 64 bytes and reported the read whole.
		{"READ reply longer than asked", OpRead, append([]byte{65, 0, 0, 0}, make([]byte, 65)...)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkReply(t, uint8(replyIndex(tc.opcode)), tc.body) })
	}
}

// TestDispatchFindings replays inputs FuzzDispatch must keep handling: the
// header's edge cases, then what the fuzzer has failed on, minimised.
func TestDispatchFindings(t *testing.T) {
	// frame is a request with no groups whose length field is its size
	// plus skew.
	frame := func(opcode Opcode, skew int, body ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(reqHeaderLen+4+len(body)+skew))
		b = binary.LittleEndian.AppendUint32(b, uint32(opcode))
		b = binary.LittleEndian.AppendUint64(b, 0x1234) // unique
		b = binary.LittleEndian.AppendUint64(b, 1)      // nodeid
		b = append(b, make([]byte, 16)...)              // uid, gid, pid, padding
		b = binary.LittleEndian.AppendUint32(b, 0)      // group count
		return append(b, body...)
	}
	groups := frame(OpGetattr, 0)
	binary.LittleEndian.PutUint32(groups[reqHeaderLen:], 1<<30)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"one byte short of a header", frame(OpGetattr, 0)[:reqHeaderLen-1]},
		{"header without its group count", frame(OpGetattr, -4)[:reqHeaderLen]},
		{"length field past the frame", frame(OpGetattr, 1)},
		{"length field short of the frame", frame(OpGetattr, -1)},
		{"group count past the frame", groups},
		{"FORGET without its count", frame(OpForget, 0)},
		{"BATCH_FORGET counting more than follows", frame(OpBatchForget, 0, 0xff, 0xff, 0xff, 0xff)},
		{"unknown opcode", frame(9999, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkDispatch(t, tc.frame) })
	}
}
