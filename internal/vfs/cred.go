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
