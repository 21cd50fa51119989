// Package fuse implements a simulated FUSE transport: a binary
// request/response wire protocol modelled on /dev/fuse, a kernel-side
// connection that translates vfs.FS calls into protocol frames, and a
// multi-threaded userspace server that dispatches frames to a filesystem
// implementation (CntrFS, in this repository).
//
// The protocol is deliberately faithful in structure: every operation is a
// framed request with an opcode, a unique id, a node id and a credential
// header, answered by a framed reply carrying an errno. The simulation
// charges virtual-time costs for the kernel/userspace transitions and the
// data copies the real protocol incurs — these costs, and the mount-time
// options that mitigate them (FOPEN_KEEP_CACHE, writeback caching,
// PARALLEL_DIROPS, batched forgets, splice), are the subject of the
// paper's §3.3 and Figures 3 and 4.
package fuse

import (
	"encoding/binary"

	"cntr/internal/vfs"
)

// Opcode identifies a FUSE operation. Values match the Linux FUSE
// protocol where the operation exists there.
type Opcode uint32

// FUSE opcodes.
const (
	OpLookup      Opcode = 1
	OpForget      Opcode = 2
	OpGetattr     Opcode = 3
	OpSetattr     Opcode = 4
	OpReadlink    Opcode = 5
	OpSymlink     Opcode = 6
	OpMknod       Opcode = 8
	OpMkdir       Opcode = 9
	OpUnlink      Opcode = 10
	OpRmdir       Opcode = 11
	OpLink        Opcode = 13
	OpOpen        Opcode = 14
	OpRead        Opcode = 15
	OpWrite       Opcode = 16
	OpStatfs      Opcode = 17
	OpRelease     Opcode = 18
	OpFsync       Opcode = 20
	OpSetxattr    Opcode = 21
	OpGetxattr    Opcode = 22
	OpListxattr   Opcode = 23
	OpRemovexattr Opcode = 24
	OpFlush       Opcode = 25
	OpInterrupt   Opcode = 36
	OpOpendir     Opcode = 27
	OpReaddir     Opcode = 28
	OpReleasedir  Opcode = 29
	OpAccess      Opcode = 34
	OpCreate      Opcode = 35
	OpBatchForget Opcode = 42
	OpFallocate   Opcode = 43
	OpReaddirplus Opcode = 44
	OpRename2     Opcode = 45
)

var opcodeNames = map[Opcode]string{
	OpLookup: "LOOKUP", OpForget: "FORGET", OpGetattr: "GETATTR",
	OpSetattr: "SETATTR", OpReadlink: "READLINK", OpSymlink: "SYMLINK",
	OpMknod: "MKNOD", OpMkdir: "MKDIR", OpUnlink: "UNLINK",
	OpRmdir: "RMDIR", OpLink: "LINK", OpOpen: "OPEN",
	OpRead: "READ", OpWrite: "WRITE", OpStatfs: "STATFS",
	OpRelease: "RELEASE", OpFsync: "FSYNC", OpSetxattr: "SETXATTR",
	OpGetxattr: "GETXATTR", OpListxattr: "LISTXATTR",
	OpRemovexattr: "REMOVEXATTR", OpFlush: "FLUSH",
	OpOpendir: "OPENDIR", OpReaddir: "READDIR", OpReleasedir: "RELEASEDIR",
	OpAccess: "ACCESS", OpCreate: "CREATE", OpInterrupt: "INTERRUPT",
	OpBatchForget: "BATCH_FORGET", OpFallocate: "FALLOCATE",
	OpReaddirplus: "READDIRPLUS", OpRename2: "RENAME2",
}

// String implements fmt.Stringer.
func (o Opcode) String() string {
	if n, ok := opcodeNames[o]; ok {
		return n
	}
	return "UNKNOWN"
}

// reqHeaderLen is the length of the fixed request header:
// u32 len, u32 opcode, u64 unique, u64 nodeid, u32 uid, u32 gid, u32 pid,
// u32 padding.
const reqHeaderLen = 40

// respHeaderLen is the length of the fixed reply header:
// u32 len, i32 error, u64 unique.
const respHeaderLen = 16

// direntMinLen is the encoding of a directory entry with an empty name:
// u32 name length, u64 ino, u8 type, i64 offset.
const direntMinLen = 21

// ReqHeader is the decoded request header. Beyond the classic FUSE
// fixed header it carries the caller's supplementary groups, which is
// how mounting with default_permissions lets group-based access checks
// work: the kernel knows the full group list even though the classic
// header has only one gid.
type ReqHeader struct {
	Len    uint32
	Opcode Opcode
	Unique uint64
	NodeID uint64
	UID    uint32
	GID    uint32
	PID    uint32
	Groups []uint32
}

// buf is an append-only little-endian encoder. The transport's buffers
// live in recycled structs and keep their backing array across frames,
// so steady-state encoding allocates nothing.
type buf struct{ b []byte }

func (w *buf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *buf) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *buf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *buf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *buf) i64(v int64)  { w.u64(uint64(v)) }
func (w *buf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *buf) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// rdr is the matching decoder. Decoding errors latch in bad; callers
// check Err once at the end, which keeps parsing code linear.
type rdr struct {
	b   []byte
	off int
	bad bool
}

func (r *rdr) need(n int) bool {
	if r.bad || r.off+n > len(r.b) {
		r.bad = true
		return false
	}
	return true
}

// fits reports whether n items of at least size bytes each can still
// follow. Every count the wire declares is checked against the bytes
// that back it before anything is sized or looped by it; a count that
// cannot fit latches the reader bad.
func (r *rdr) fits(n, size int) bool {
	if r.bad || n > (len(r.b)-r.off)/size {
		r.bad = true
		return false
	}
	return true
}

func (r *rdr) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rdr) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *rdr) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rdr) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rdr) i64() int64 { return int64(r.u64()) }

func (r *rdr) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rdr) rawBytes() []byte {
	n := int(r.u32())
	if !r.need(n) {
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// encodeReqHeader writes the fixed header at the front of a frame. The
// frame length is patched in by finishFrame. req supplies the credential
// and originating PID; nil means an anonymous kernel-internal message
// (forgets, releases, interrupts).
func encodeReqHeader(w *buf, op Opcode, unique, nodeid uint64, req *vfs.Op) {
	w.u32(0) // length placeholder
	w.u32(uint32(op))
	w.u64(unique)
	w.u64(nodeid)
	var c *vfs.Cred
	if req != nil {
		c = req.Cred
	}
	if c != nil {
		w.u32(c.FSUID)
		w.u32(c.FSGID)
	} else {
		w.u32(0)
		w.u32(0)
	}
	if req != nil {
		w.u32(req.PID)
	} else {
		w.u32(0)
	}
	w.u32(0) // padding
	if c != nil {
		w.u32(uint32(len(c.Groups)))
		for _, g := range c.Groups {
			w.u32(g)
		}
	} else {
		w.u32(0)
	}
}

func finishFrame(w *buf) []byte {
	binary.LittleEndian.PutUint32(w.b, uint32(len(w.b)))
	return w.b
}

// decodeReqHeader parses the fixed header of frame into h and leaves r
// positioned at the payload. h and r are the caller's to recycle:
// h.Groups reuses its backing array, and r reads frame in place. The
// group count is bounded by the bytes the frame holds, so encoder and
// decoder agree on every list the frame can carry and group bytes can
// never be read as payload.
func decodeReqHeader(frame []byte, h *ReqHeader, r *rdr) error {
	*h = ReqHeader{Groups: h.Groups[:0]}
	if len(frame) < reqHeaderLen {
		return vfs.EINVAL
	}
	*r = rdr{b: frame}
	h.Len = r.u32()
	h.Opcode = Opcode(r.u32())
	h.Unique = r.u64()
	h.NodeID = r.u64()
	h.UID = r.u32()
	h.GID = r.u32()
	h.PID = r.u32()
	r.u32() // padding
	if ngroups := int(r.u32()); r.fits(ngroups, 4) {
		for i := 0; i < ngroups; i++ {
			h.Groups = append(h.Groups, r.u32())
		}
	}
	if r.bad || int(h.Len) != len(frame) {
		return vfs.EINVAL
	}
	return nil
}

// beginReply resets w to an empty reply frame: the header bytes are
// reserved, the body is appended behind them, and finishReply patches the
// header in place — a reply is encoded once, where it is sent from.
func beginReply(w *buf) {
	var hdr [respHeaderLen]byte
	w.b = append(w.b[:0], hdr[:]...)
}

// finishReply completes the frame begun by beginReply.
func finishReply(w *buf, unique uint64, errno vfs.Errno) []byte {
	binary.LittleEndian.PutUint32(w.b[0:], uint32(len(w.b)))
	binary.LittleEndian.PutUint32(w.b[4:], uint32(int32(errno)))
	binary.LittleEndian.PutUint64(w.b[8:], unique)
	return w.b
}

// decodeReply splits a reply frame into errno and payload.
func decodeReply(frame []byte) (uint64, vfs.Errno, []byte, error) {
	if len(frame) < respHeaderLen {
		return 0, 0, nil, vfs.EINVAL
	}
	r := &rdr{b: frame}
	l := r.u32()
	errno := vfs.Errno(int32(r.u32()))
	unique := r.u64()
	if int(l) != len(frame) {
		return 0, 0, nil, vfs.EINVAL
	}
	return unique, errno, frame[respHeaderLen:], nil
}

// encodeDirent writes one directory entry (direntMinLen plus its name).
func encodeDirent(w *buf, d *vfs.Dirent) {
	w.str(d.Name)
	w.u64(uint64(d.Ino))
	w.u8(uint8(d.Type))
	w.i64(d.Off)
}

// decodeDirent decodes one directory entry.
func decodeDirent(r *rdr) vfs.Dirent {
	var d vfs.Dirent
	d.Name = r.str()
	d.Ino = vfs.Ino(r.u64())
	d.Type = vfs.FileType(r.u8())
	d.Off = r.i64()
	return d
}

// attrLen is the size of an encoded attribute record.
const attrLen = 69

// attr encoding: attrLen bytes, fixed layout.
func encodeAttr(w *buf, a *vfs.Attr) {
	w.u64(uint64(a.Ino))
	w.i64(a.Size)
	w.i64(a.Blocks)
	w.i64(a.Atime.UnixNano())
	w.i64(a.Mtime.UnixNano())
	w.i64(a.Ctime.UnixNano())
	w.u32(uint32(a.Mode))
	w.u8(uint8(a.Type))
	w.u32(a.Nlink)
	w.u32(a.UID)
	w.u32(a.GID)
	w.u32(a.Rdev)
}

func decodeAttr(r *rdr) vfs.Attr {
	var a vfs.Attr
	a.Ino = vfs.Ino(r.u64())
	a.Size = r.i64()
	a.Blocks = r.i64()
	a.Atime = nanoTime(r.i64())
	a.Mtime = nanoTime(r.i64())
	a.Ctime = nanoTime(r.i64())
	a.Mode = vfs.Mode(r.u32())
	a.Type = vfs.FileType(r.u8())
	a.Nlink = r.u32()
	a.UID = r.u32()
	a.GID = r.u32()
	a.Rdev = r.u32()
	return a
}
