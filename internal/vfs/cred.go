package vfs

// Capability identifies one Linux capability bit. Only the capabilities
// that influence filesystem behaviour are modelled; internal/caps defines
// the full set used by container sandboxing.
type Capability uint8

// Filesystem-relevant capabilities.
const (
	CapChown Capability = iota
	CapDacOverride
	CapDacReadSearch
	CapFowner
	CapFsetid
	CapSysAdmin
	CapSysResource
	CapMknod
	CapSetUID
	CapSetGID
	CapNetAdmin
	CapSysPtrace
	CapKill
	CapAuditWrite
	CapNetBindService
	numCapabilities
)

// NumCapabilities is the count of modelled capability bits.
const NumCapabilities = int(numCapabilities)

// CapSet is a set of capabilities.
type CapSet uint32

// NewCapSet builds a set from individual capabilities.
func NewCapSet(caps ...Capability) CapSet {
	var s CapSet
	for _, c := range caps {
		s |= 1 << c
	}
	return s
}

// FullCapSet returns a set with every modelled capability, i.e. what root
// holds outside any sandbox.
func FullCapSet() CapSet {
	return CapSet(1<<numCapabilities - 1)
}

// Has reports whether c is in the set.
func (s CapSet) Has(c Capability) bool { return s&(1<<c) != 0 }

// Intersect returns the intersection of two sets.
func (s CapSet) Intersect(o CapSet) CapSet { return s & o }

// Cred is the credential a filesystem operation runs with. It mirrors the
// subset of task_struct credentials the VFS consults: filesystem uid/gid
// (setfsuid(2) semantics — these, not the real uid, drive permission
// checks), supplementary groups, the capability set, and the RLIMIT_FSIZE
// resource limit that write(2) enforces.
type Cred struct {
	UID    uint32
	GID    uint32
	FSUID  uint32
	FSGID  uint32
	Groups []uint32
	Caps   CapSet

	// FSizeLimit is RLIMIT_FSIZE in bytes; 0 means unlimited. Writes and
	// truncates that would grow a file beyond the limit fail with EFBIG.
	FSizeLimit int64
}

// Root returns the credential of an unconfined root process.
func Root() *Cred {
	return &Cred{UID: 0, GID: 0, FSUID: 0, FSGID: 0, Caps: FullCapSet()}
}

// User returns an unprivileged credential for uid/gid.
func User(uid, gid uint32, groups ...uint32) *Cred {
	return &Cred{UID: uid, GID: gid, FSUID: uid, FSGID: gid, Groups: groups}
}

// Clone returns a deep copy of the credential.
func (c *Cred) Clone() *Cred {
	cp := *c
	cp.Groups = append([]uint32(nil), c.Groups...)
	return &cp
}

// InGroup reports whether gid is the credential's fsgid or one of its
// supplementary groups.
func (c *Cred) InGroup(gid uint32) bool {
	if c.FSGID == gid {
		return true
	}
	for _, g := range c.Groups {
		if g == gid {
			return true
		}
	}
	return false
}

// MayRead checks read permission on an inode with the given attributes.
func (c *Cred) MayRead(a *Attr) bool { return c.permitted(a, 4, CapDacReadSearch) }

// MayWrite checks write permission on an inode.
func (c *Cred) MayWrite(a *Attr) bool { return c.permitted(a, 2, CapDacOverride) }

// MayExec checks execute/search permission on an inode. For regular files
// CAP_DAC_OVERRIDE only helps if some execute bit is set, matching Linux.
func (c *Cred) MayExec(a *Attr) bool {
	if c.Caps.Has(CapDacOverride) {
		if a.Type == TypeDirectory || a.Mode&0o111 != 0 {
			return true
		}
	}
	return c.permitted(a, 1, numCapabilities /* no capability bypass */)
}

// permitted implements the standard owner/group/other check with an
// optional capability override.
func (c *Cred) permitted(a *Attr, bit Mode, bypass Capability) bool {
	if bypass < numCapabilities && c.Caps.Has(bypass) {
		return true
	}
	if c.Caps.Has(CapDacOverride) && bypass != numCapabilities {
		return true
	}
	var shift uint
	switch {
	case c.FSUID == a.UID:
		shift = 6
	case c.InGroup(a.GID):
		shift = 3
	default:
		shift = 0
	}
	return a.Mode&(bit<<shift) != 0
}

// IsOwner reports whether the credential owns the inode or has CAP_FOWNER.
func (c *Cred) IsOwner(a *Attr) bool {
	return c.FSUID == a.UID || c.Caps.Has(CapFowner)
}

// StickyDenied reports the sticky-bit restriction on removing child from
// dir: in a sticky directory only the child's owner, the directory's
// owner or a caller with CAP_FOWNER may.
func (c *Cred) StickyDenied(dir, child *Attr) bool {
	return dir.Mode&ModeSticky != 0 && !c.Caps.Has(CapFowner) && c.FSUID != child.UID && c.FSUID != dir.UID
}

// CheckOpen returns the error opening an inode with attributes a for
// flags fails with: EISDIR for a directory opened for writing, ELOOP for
// a symlink, EACCES without the access flags asks. Nil when permitted.
func (c *Cred) CheckOpen(a *Attr, flags OpenFlags) error {
	switch a.Type {
	case TypeDirectory:
		if flags.Writable() {
			return EISDIR
		}
	case TypeSymlink:
		return ELOOP
	}
	if flags.Readable() && !c.MayRead(a) || flags.Writable() && !c.MayWrite(a) {
		return EACCES
	}
	return nil
}

// CheckSetattr returns the error setting the fields mask names to their
// values in to fails with on an inode with attributes a, nil when
// permitted: chmod needs ownership, chown CAP_CHOWN (a gid the owner is
// a member of needs none), truncation write permission or ownership. As
// Linux's setattr_prepare, an explicit atime or mtime needs ownership
// (EPERM), and setting either to now ownership or write permission
// (EACCES).
func (c *Cred) CheckSetattr(a *Attr, mask SetattrMask, to *Attr) error {
	chown := c.Caps.Has(CapChown)
	switch {
	case mask.Has(SetMode) && !c.IsOwner(a),
		mask.Has(SetUID) && to.UID != a.UID && !chown,
		mask.Has(SetGID) && to.GID != a.GID && !chown && !(c.IsOwner(a) && c.InGroup(to.GID)),
		mask&(SetAtime|SetMtime) != 0 && !c.IsOwner(a):
		return EPERM
	case mask&(SetAtimeNow|SetMtimeNow) != 0 && !c.IsOwner(a) && !c.MayWrite(a):
		return EACCES
	}
	if !mask.Has(SetSize) {
		return nil
	}
	switch {
	case a.Type == TypeDirectory:
		return EISDIR
	case !c.MayWrite(a) && !c.IsOwner(a):
		return EACCES
	case to.Size < 0:
		return EINVAL
	case c.FSizeLimit > 0 && to.Size > c.FSizeLimit:
		return EFBIG
	}
	return nil
}

// CheckAccess returns EACCES unless the caller has every access(2)
// permission mask asks for on an inode with attributes a.
func (c *Cred) CheckAccess(a *Attr, mask uint32) error {
	if mask&AccessRead != 0 && !c.MayRead(a) || mask&AccessWrite != 0 && !c.MayWrite(a) ||
		mask&AccessExec != 0 && !c.MayExec(a) {
		return EACCES
	}
	return nil
}

// CheckXattr returns EPERM unless the caller may set or remove an
// inode's extended attributes: it owns the inode or has CAP_FOWNER.
func (c *Cred) CheckXattr(a *Attr) error {
	if !c.IsOwner(a) {
		return EPERM
	}
	return nil
}
