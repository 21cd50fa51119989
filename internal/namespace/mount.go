package namespace

import (
	"maps"
	"sort"
	"strings"
	"sync"

	"cntr/internal/vfs"
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
	// ReadOnly rejects mutating operations at the namespace layer.
	ReadOnly bool
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

// Clone copies the namespace (unshare(CLONE_NEWNS)). Every mount is
// private, so a mount made in either table is invisible to the other; a
// mount is never changed once made, so both share the entries.
func (ns *MountNS) Clone() *MountNS {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return &MountNS{ID: nextID(), mounts: maps.Clone(ns.mounts)}
}

// Mount attaches fs (rooted at root) at point.
func (ns *MountNS) Mount(point string, fs vfs.FS, root vfs.Ino, readOnly bool) {
	point = normalizePoint(point)
	ns.mu.Lock()
	ns.mounts[point] = &Mount{Point: point, FS: fs, Root: root, ReadOnly: readOnly}
	ns.mu.Unlock()
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
