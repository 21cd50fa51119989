package vfs

import "time"

// Ino is an inode number. Inode 1 is conventionally the root of a
// filesystem, matching FUSE_ROOT_ID.
type Ino uint64

// RootIno is the inode number of every filesystem's root directory.
const RootIno Ino = 1

// FileType distinguishes the kinds of filesystem objects.
type FileType uint8

// File types, mirroring the POSIX d_type values.
const (
	TypeRegular FileType = iota
	TypeDirectory
	TypeSymlink
	TypeCharDev
	TypeBlockDev
	TypeFIFO
	TypeSocket
)

// String returns a short human-readable name for the type.
func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDirectory:
		return "dir"
	case TypeSymlink:
		return "symlink"
	case TypeCharDev:
		return "chardev"
	case TypeBlockDev:
		return "blockdev"
	case TypeFIFO:
		return "fifo"
	case TypeSocket:
		return "socket"
	default:
		return "unknown"
	}
}

// Mode holds the permission and mode bits of an inode (the low 12 bits of
// st_mode: rwxrwxrwx plus setuid/setgid/sticky).
type Mode uint32

// Special mode bits.
const (
	ModeSetUID Mode = 0o4000
	ModeSetGID Mode = 0o2000
	ModeSticky Mode = 0o1000
	ModePerm   Mode = 0o777
)

// Attr is the stat information of an inode.
type Attr struct {
	Ino    Ino
	Type   FileType
	Mode   Mode
	Nlink  uint32
	UID    uint32
	GID    uint32
	Rdev   uint32
	Size   int64
	Blocks int64 // 512-byte units, tracks allocated (non-hole) space
	Atime  time.Time
	Mtime  time.Time
	Ctime  time.Time
}

// SetattrMask selects which fields a Setattr call updates.
type SetattrMask uint32

// Setattr field selectors.
const (
	SetMode SetattrMask = 1 << iota
	SetUID
	SetGID
	SetSize
	SetAtime
	SetMtime
	SetAtimeNow
	SetMtimeNow
)

// Has reports whether all bits in m are set.
func (s SetattrMask) Has(m SetattrMask) bool { return s&m == m }

// OpenFlags carries the flags of an open(2) call.
type OpenFlags uint32

// Open flags, numerically matching Linux on amd64 where it matters to the
// FUSE wire protocol.
const (
	ORdonly    OpenFlags = 0x0
	OWronly    OpenFlags = 0x1
	ORdwr      OpenFlags = 0x2
	OCreat     OpenFlags = 0x40
	OExcl      OpenFlags = 0x80
	OTrunc     OpenFlags = 0x200
	OAppend    OpenFlags = 0x400
	ONonblock  OpenFlags = 0x800
	ODirect    OpenFlags = 0x4000
	ODirectory OpenFlags = 0x10000
	ONofollow  OpenFlags = 0x20000
	OSync      OpenFlags = 0x101000
)

// AccessMode extracts the read/write mode bits.
func (f OpenFlags) AccessMode() OpenFlags { return f & 0x3 }

// Readable reports whether the flags permit reading.
func (f OpenFlags) Readable() bool {
	m := f.AccessMode()
	return m == ORdonly || m == ORdwr
}

// Writable reports whether the flags permit writing.
func (f OpenFlags) Writable() bool {
	m := f.AccessMode()
	return m == OWronly || m == ORdwr
}

// Handle identifies an open file or directory within a filesystem. Handles
// are issued by Open/Create/Opendir and released by Release/Releasedir.
type Handle uint64

// Dirent is one directory entry as returned by Readdir.
type Dirent struct {
	Name string
	Ino  Ino
	Type FileType
	// Off is the entry's cookie: passed to Readdir, it resumes after this
	// entry, as getdents(2)'s d_off does (FS.Readdir).
	Off int64
}

// StatfsOut reports filesystem-level statistics (statfs(2)).
type StatfsOut struct {
	BlockSize  uint32
	Blocks     uint64
	BlocksFree uint64
	Files      uint64
	FilesFree  uint64
	NameMax    uint32
}

// RenameFlags modifies Rename behaviour (renameat2(2)).
type RenameFlags uint32

// Rename flags.
const (
	RenameNoReplace RenameFlags = 1 << iota
	RenameExchange
)

// Access mask bits for Access (access(2)).
const (
	AccessExists = 0
	AccessExec   = 1
	AccessWrite  = 2
	AccessRead   = 4
)

// Fallocate mode bits (subset of Linux).
const (
	FallocKeepSize  = 0x1
	FallocPunchHole = 0x2
)

// Xattr namespace prefixes that get special treatment.
const (
	XattrSecurityCapability = "security.capability"
	XattrPosixACLAccess     = "system.posix_acl_access"
	XattrPosixACLDefault    = "system.posix_acl_default"
)

// MaxNameLen is the maximum length of a single path component, matching
// NAME_MAX on Linux.
const MaxNameLen = 255

// MaxPathLen is PATH_MAX on Linux, which counts the terminating NUL:
// getname returns ENAMETOOLONG for a path of this many bytes or more, and
// every call that takes a path goes through it, symlink(2)'s target too.
const MaxPathLen = 4096

// MaxSymlinkDepth bounds symlink resolution, matching the kernel's limit.
const MaxSymlinkDepth = 40
