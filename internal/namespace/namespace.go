// Package namespace models the seven Linux namespaces that implement the
// container abstraction (§2.3). A program observes three namespace facts:
// the mount table, the UTS hostname, and each kind's identity
// (/proc/<pid>/ns/<kind>, which also keys the per-network-namespace
// socket tables of §3.2.4). A Set holds exactly these: a full mount
// namespace — mount tables with longest-prefix resolution, bind mounts
// and chroot, everything Cntr's nested namespace construction (§3.2.3)
// manipulates — the hostname, and one id for every other kind. Every
// mount is private: no program here mounts a shared subtree, so mount
// propagation is not modelled, nor are pid translation, id maps,
// interfaces or cgroup roots, which nothing reads.
package namespace

import "sync/atomic"

// Kind identifies a namespace type.
type Kind uint8

// The seven Linux namespace kinds.
const (
	KindMount Kind = iota
	KindPID
	KindNet
	KindUTS
	KindIPC
	KindUser
	KindCgroup
	numKinds
)

// NumKinds is the number of modelled namespace kinds.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{"mnt", "pid", "net", "uts", "ipc", "user", "cgroup"}

// String returns the /proc/<pid>/ns name of the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// nsIDs issues unique namespace identities, like nsfs inode numbers.
var nsIDs atomic.Uint64

func nextID() uint64 { return nsIDs.Add(1) + 0x4000000 }

// Set bundles one namespace of each kind, as a process's nsproxy does.
type Set struct {
	// Mount is the mount namespace; its ID is the set's mount id, so
	// assigning a new one is unshare(CLONE_NEWNS).
	Mount *MountNS
	// Hostname is the UTS namespace's hostname.
	Hostname string
	// ids holds every other kind's identity; ids[KindMount] is unused.
	ids [numKinds]uint64
}

// New returns the namespaces of a process created with CLONE_NEW<kind>
// for each kind in fresh (other than KindMount): mount and hostname as
// given, and a new id per fresh kind, drawn in the order listed. A kind
// left out has id 0 until Setns joins one.
func New(mount *MountNS, hostname string, fresh ...Kind) *Set {
	s := &Set{Mount: mount, Hostname: hostname}
	for _, k := range fresh {
		s.ids[k] = nextID()
	}
	return s
}

// Clone returns a copy sharing every namespace (what fork does).
func (s *Set) Clone() *Set {
	cp := *s
	return &cp
}

// Setns joins target's namespaces of the given kinds, mirroring setns(2)
// called once per namespace file descriptor. Joining the UTS namespace
// takes its hostname.
func (s *Set) Setns(target *Set, kinds ...Kind) {
	for _, k := range kinds {
		switch k {
		case KindMount:
			s.Mount = target.Mount
		case KindUTS:
			s.Hostname = target.Hostname
		}
		s.ids[k] = target.ids[k]
	}
}

// SetnsAll joins every namespace of target.
func (s *Set) SetnsAll(target *Set) {
	for k := Kind(0); k < numKinds; k++ {
		s.Setns(target, k)
	}
}

// ID returns the identity of the namespace of the given kind, for
// /proc/<pid>/ns rendering.
func (s *Set) ID(k Kind) uint64 {
	if k == KindMount {
		return s.Mount.ID
	}
	return s.ids[k]
}
