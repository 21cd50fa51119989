package namespace

import (
	"sort"
	"strings"
	"sync"

	"cntr/internal/vfs"
)

// Propagation controls whether mount events under a mount point flow to
// peer namespaces (mount(8) shared subtrees).
type Propagation uint8

// Propagation modes.
const (
	PropPrivate Propagation = iota
	PropShared
)

// Mount is one entry in a mount table: the filesystem serving everything
// under Point (until a deeper mount shadows it).
type Mount struct {
	// Point is the normalized absolute mount point ("/", "/proc", ...).
	Point string
	// FS serves the subtree.
	FS vfs.FS
	// Root is the inode within FS that appears at Point; bind mounts
	// point it at an arbitrary directory.
	Root vfs.Ino
	// Propagation marks the mount private or shared.
	Propagation Propagation
	// ReadOnly rejects mutating operations at the namespace layer.
	ReadOnly bool
	// peers is the shared-subtree peer group; nil for private mounts.
	peers *peerGroup
}

// peerGroup links mounts that propagate events to each other.
type peerGroup struct {
	mu      sync.Mutex
	members []*MountNS
}

// MountNS is a mount namespace: an identity plus a mount table.
type MountNS struct {
	ID uint64

	mu     sync.RWMutex
	mounts map[string]*Mount
}

// NewMountNS creates a namespace with a single mount: rootFS at "/".
func NewMountNS(rootFS vfs.FS) *MountNS {
	ns := &MountNS{ID: nextID(), mounts: make(map[string]*Mount)}
	ns.mounts["/"] = &Mount{Point: "/", FS: rootFS, Root: vfs.RootIno}
	return ns
}

// normalizePoint canonicalizes a mount point path.
func normalizePoint(p string) string {
	parts := vfs.SplitPath(p)
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// Clone copies the namespace (unshare(CLONE_NEWNS)): the mount table is
// duplicated; shared mounts remain in their peer groups, private mounts
// become independent copies.
func (ns *MountNS) Clone() *MountNS {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	cp := &MountNS{ID: nextID(), mounts: make(map[string]*Mount, len(ns.mounts))}
	for point, m := range ns.mounts {
		mc := *m
		cp.mounts[point] = &mc
		if m.Propagation == PropShared && m.peers != nil {
			m.peers.mu.Lock()
			m.peers.members = append(m.peers.members, cp)
			m.peers.mu.Unlock()
		}
	}
	return cp
}

// Mount attaches fs (rooted at root) at point.
func (ns *MountNS) Mount(point string, fs vfs.FS, root vfs.Ino, prop Propagation, readOnly bool) {
	point = normalizePoint(point)
	m := &Mount{Point: point, FS: fs, Root: root, Propagation: prop, ReadOnly: readOnly}
	if prop == PropShared {
		m.peers = &peerGroup{members: []*MountNS{ns}}
	}
	ns.mu.Lock()
	ns.mounts[point] = m
	ns.mu.Unlock()
	ns.propagate(point, m)
}

// propagate pushes a new mount to peer namespaces when the covering
// mount in this namespace is shared.
func (ns *MountNS) propagate(point string, m *Mount) {
	covering := ns.coveringMount(point)
	if covering == nil || covering.Propagation != PropShared || covering.peers == nil {
		return
	}
	covering.peers.mu.Lock()
	peers := append([]*MountNS(nil), covering.peers.members...)
	covering.peers.mu.Unlock()
	for _, peer := range peers {
		if peer == ns {
			continue
		}
		peer.mu.Lock()
		if _, exists := peer.mounts[point]; !exists {
			mc := *m
			peer.mounts[point] = &mc
		}
		peer.mu.Unlock()
	}
}

// coveringMount finds the mount whose subtree contains point (excluding
// an exact mount at point itself).
func (ns *MountNS) coveringMount(point string) *Mount {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	best := ""
	var found *Mount
	for p, m := range ns.mounts {
		if p == point {
			continue
		}
		if p == "/" || strings.HasPrefix(point, p+"/") {
			if len(p) > len(best) {
				best, found = p, m
			}
		}
	}
	return found
}

// MakeAllPrivate marks every mount private, detaching it from its peer
// group — the first thing Cntr does inside the nested namespace so mount
// events do not leak back to the container (§3.2.3).
func (ns *MountNS) MakeAllPrivate() {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, m := range ns.mounts {
		if m.peers != nil {
			m.peers.mu.Lock()
			members := m.peers.members[:0]
			for _, member := range m.peers.members {
				if member != ns {
					members = append(members, member)
				}
			}
			m.peers.members = members
			m.peers.mu.Unlock()
		}
		m.Propagation = PropPrivate
		m.peers = nil
	}
}

// MountAt returns the mount exactly at point, if any.
func (ns *MountNS) MountAt(point string) (*Mount, bool) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	m, ok := ns.mounts[normalizePoint(point)]
	return m, ok
}

// Mounts lists the table sorted by mount point, like /proc/self/mounts.
func (ns *MountNS) Mounts() []*Mount {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	out := make([]*Mount, 0, len(ns.mounts))
	for _, m := range ns.mounts {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// NewClient returns a path-level client at the namespace root: a
// vfs.Client whose paths resolve across the namespace's mounts. Processes
// created by internal/proc hold one of these; Client.Chroot confines it.
func NewClient(ns *MountNS, cred *vfs.Cred) *vfs.Client {
	return newClient(ns, vfs.NewOp(nil, cred))
}

func newClient(ns *MountNS, op *vfs.Op) *vfs.Client {
	root, _ := ns.MountedAt("/")
	return &vfs.Client{Pos: root, Op: op, Mounts: ns}
}

// Resolve walks path across mounts and symlinks to the filesystem
// serving it, its inode and attributes.
func (ns *MountNS) Resolve(op *vfs.Op, path string) (vfs.WalkResult, error) {
	return newClient(ns, op).Resolve(path)
}

// MountedAt returns the root of the mount exactly at the normalized path.
// With MountedBelow it makes the namespace a vfs.MountTable, which is all
// the shared path walker needs to know about mounts.
func (ns *MountNS) MountedAt(path string) (vfs.Pos, bool) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	m, ok := ns.mounts[path]
	if !ok {
		return vfs.Pos{}, false
	}
	return vfs.Pos{FS: m.FS, Ino: m.Root, Path: m.Point, ReadOnly: m.ReadOnly}, true
}

// MountedBelow reports whether any mount point lies strictly below path.
func (ns *MountNS) MountedBelow(path string) bool {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	for p := range ns.mounts {
		if strings.HasPrefix(p, path+"/") {
			return true
		}
	}
	return false
}
