// Package unionfs implements a layered copy-on-write filesystem in the
// style of overlayfs: a stack of read-only lower layers (container image
// layers) under one writable upper layer. Lookups fall through the stack
// top-down; writes copy the file up into the writable layer; deletions
// leave whiteout markers so lower entries disappear from the union view.
//
// A union inode names an object, as an overlayfs inode does
// (Documentation/filesystems/overlayfs.rst, "Inode properties"). It holds
// its upper inode once the object is copied up or created, and its lower
// objects: for a directory, each lower directory it merges, top-most
// first; otherwise the top-most lower object. A lookup resolves one
// component against its parent's layers, and a copy-up follows the
// (parent, name) links inodes were last reached by. Each object has one
// union inode number, keyed by (layer, inode) until the object is copied
// up and by its upper inode after, so the number holds across copy-up and
// rename, and links in the upper layer share it.
//
// Container images in internal/container are stacks of such layers —
// Docker's base-image sharing (§2.2) is exactly this mechanism.
package unionfs

import (
	"strings"
	"sync"

	"cntr/internal/blobstore"
	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// whiteoutPrefix marks deletions in the upper layer (AUFS-style).
const whiteoutPrefix = ".wh."

// opaqueMarker inside an upper directory hides all lower content of that
// directory (overlayfs "opaque" directories).
const opaqueMarker = ".wh..wh..opq"

// FS is the union filesystem.
type FS struct {
	upper  *memfs.FS // writable layer
	lowers []vfs.FS  // read-only layers, top-most first

	// mu serialises the namespace: every operation runs under it but the
	// calls on an open handle and a layer's open, which may park.
	mu      sync.Mutex
	nodes   map[vfs.Ino]*unode
	byObj   map[layerIno]vfs.Ino // the union inode naming each object
	nextIno vfs.Ino
	dirs    map[vfs.Handle][]vfs.Dirent // each open directory's merged listing
	nextH   vfs.Handle
}

// layerIno names an object: inode ino of the upper layer (layer 0) or of
// lowers[layer-1].
type layerIno struct {
	layer int
	ino   vfs.Ino
}

// obj is what a union name shows.
type obj struct {
	upper vfs.Ino // 0 until copied up or created
	// lowers holds, for a directory, each lower directory it merges,
	// top-most first, and none under an opaque upper directory;
	// otherwise the top-most lower object, if there is one.
	lowers []layerIno
	opaque bool
}

// key is the object's identity: its upper inode once it has one.
func (o *obj) key() layerIno {
	if o.upper != 0 {
		return layerIno{0, o.upper}
	}
	return o.lowers[0]
}

type unode struct {
	obj
	// parent and name are where the inode was last reached, which a
	// copy-up follows; parent is 0 once that name is removed. A node pins
	// its parent, as a dentry does: kids counts the nodes it is parent of.
	parent  vfs.Ino
	name    string
	nlookup uint64
	kids    int
}

// Options configures a union filesystem.
type Options struct {
	// Store, when non-nil, backs the writable upper layer's file
	// content. Sharing a content-addressed store with the lower layers
	// makes copy-up nearly free in physical bytes: the copied-up blocks
	// dedup against the lower layer's identical chunks.
	Store blobstore.Store
}

// NewWith builds a union of the given read-only lower layers (top-most
// first) with a fresh writable upper layer, which writes through the
// store opts names.
func NewWith(opts Options, lowers ...vfs.FS) *FS {
	fs := &FS{
		upper:   memfs.New(memfs.Options{Store: opts.Store}),
		lowers:  lowers,
		nodes:   make(map[vfs.Ino]*unode),
		byObj:   make(map[layerIno]vfs.Ino),
		nextIno: vfs.RootIno + 1,
		dirs:    make(map[vfs.Handle][]vfs.Dirent),
		nextH:   1,
	}
	root := &unode{obj: obj{upper: vfs.RootIno}, parent: vfs.RootIno, nlookup: 1}
	for i := range lowers {
		root.lowers = append(root.lowers, layerIno{i + 1, vfs.RootIno})
	}
	fs.nodes[vfs.RootIno] = root
	fs.byObj[root.key()] = vfs.RootIno
	return fs
}

// root credential used for internal layer access: union-level permission
// checks already happened against the looked-up attributes.
var internalCred = vfs.Root()

// internalOp is the request context for that internal layer access.
var internalOp = vfs.NewOp(nil, internalCred)

func (fs *FS) layer(i int) vfs.FS {
	if i == 0 {
		return fs.upper
	}
	return fs.lowers[i-1]
}

func (fs *FS) node(ino vfs.Ino) (*unode, error) {
	n, ok := fs.nodes[ino]
	if !ok {
		return nil, vfs.ESTALE
	}
	return n, nil
}

// resolve looks name up in the directory p: the entry and its whiteout in
// p's upper directory, then the entry in each of p's lower directories
// while what it finds is a directory to merge.
func (fs *FS) resolve(p *obj, name string) (obj, vfs.Attr, error) {
	var o obj
	var attr vfs.Attr
	found := false
	if p.upper != 0 {
		if _, err := fs.upper.Lookup(internalOp, p.upper, whiteoutPrefix+name); err == nil {
			return obj{}, vfs.Attr{}, vfs.ENOENT
		}
		if a, err := fs.upper.Lookup(internalOp, p.upper, name); err == nil {
			o.upper, attr, found = a.Ino, a, true
			if a.Type != vfs.TypeDirectory {
				return o, attr, nil
			}
			if _, err := fs.upper.Lookup(internalOp, a.Ino, opaqueMarker); err == nil {
				o.opaque = true
				return o, attr, nil
			}
		}
	}
	for _, l := range p.lowers {
		a, err := fs.layer(l.layer).Lookup(internalOp, l.ino, name)
		if err != nil {
			continue
		}
		if a.Type != vfs.TypeDirectory {
			if !found {
				o.lowers, attr, found = []layerIno{{l.layer, a.Ino}}, a, true
			}
			break
		}
		o.lowers = append(o.lowers, layerIno{l.layer, a.Ino})
		if !found {
			attr, found = a, true
		}
	}
	if !found {
		return obj{}, vfs.Attr{}, vfs.ENOENT
	}
	return o, attr, nil
}

// lowerHas reports whether a lower directory of p holds name, so that
// removing it from the union needs a whiteout.
func (fs *FS) lowerHas(p *obj, name string) bool {
	for _, l := range p.lowers {
		if _, err := fs.layer(l.layer).Lookup(internalOp, l.ino, name); err == nil {
			return true
		}
	}
	return false
}

// reach counts a lookup of the object o that name shows in parent and
// returns its union inode: the one the object has, or a new one.
func (fs *FS) reach(parent vfs.Ino, name string, o obj) vfs.Ino {
	ino, ok := fs.byObj[o.key()]
	if !ok {
		ino = fs.nextIno
		fs.nextIno++
		fs.nodes[ino] = &unode{}
		fs.byObj[o.key()] = ino
	}
	n := fs.nodes[ino]
	n.obj = o
	n.nlookup++
	fs.reparent(ino, parent, name)
	return ino
}

// reparent records that ino was last reached as name in parent, moving
// its pin from the parent it had; parent 0 marks the name removed.
func (fs *FS) reparent(ino, parent vfs.Ino, name string) {
	n := fs.nodes[ino]
	old := n.parent
	n.parent, n.name = parent, name
	if parent == old {
		return
	}
	if parent != 0 {
		fs.nodes[parent].kids++
	}
	if old != 0 {
		fs.nodes[old].kids--
		fs.drop(old)
	}
}

// drop deletes ino once no lookup and no child holds it, and then
// unpins its parent.
func (fs *FS) drop(ino vfs.Ino) {
	n := fs.nodes[ino]
	if ino == vfs.RootIno || n.nlookup > 0 || n.kids > 0 {
		return
	}
	delete(fs.nodes, ino)
	if fs.byObj[n.key()] == ino {
		delete(fs.byObj, n.key())
	}
	if n.parent != 0 {
		fs.nodes[n.parent].kids--
		fs.drop(n.parent)
	}
}

// unlinked marks the inode of o removed when its last name was name in
// parent: a copy-up then has nowhere to go.
func (fs *FS) unlinked(parent vfs.Ino, name string, o obj) {
	ino := fs.byObj[o.key()]
	if n, ok := fs.nodes[ino]; ok && n.parent == parent && n.name == name {
		fs.reparent(ino, 0, "")
	}
}

// copyUp gives inode ino an upper inode, copying its parents up first,
// and returns it.
func (fs *FS) copyUp(ino vfs.Ino) (vfs.Ino, error) {
	n, err := fs.node(ino)
	switch {
	case err != nil:
		return 0, err
	case n.upper != 0:
		return n.upper, nil
	case n.parent == 0:
		return 0, vfs.ENOENT // its name was removed
	}
	dir, err := fs.copyUp(n.parent)
	if err == nil {
		err = fs.copyIn(dir, n.name, &n.obj)
	}
	return n.upper, err
}

// checkedCopyUp copies ino up once check passes on its attributes, so a
// change the caller may not make leaves the upper layer as it was:
// overlayfs checks permission before it copies up (ovl_permission).
func (fs *FS) checkedCopyUp(ino vfs.Ino, check func(a *vfs.Attr) error) (vfs.Ino, error) {
	n, err := fs.node(ino)
	if err != nil {
		return 0, err
	}
	attr, err := fs.getattr(ino, n)
	if err == nil {
		err = check(&attr)
	}
	if err != nil {
		return 0, err
	}
	return fs.copyUp(ino)
}

// copyIn copies o's top-most lower object into the upper directory dir as
// name, preserving data, mode, ownership and xattrs, and re-keys the
// union inode naming it to its new upper inode.
func (fs *FS) copyIn(dir vfs.Ino, name string, o *obj) error {
	src := o.lowers[0]
	layer := fs.layer(src.layer)
	attr, err := layer.Getattr(internalOp, src.ino)
	if err != nil {
		return err
	}
	var up vfs.Attr
	switch attr.Type {
	case vfs.TypeDirectory:
		up, err = fs.upper.Mkdir(internalOp, dir, name, attr.Mode)
	case vfs.TypeSymlink:
		var target string
		if target, err = layer.Readlink(internalOp, src.ino); err == nil {
			up, err = fs.upper.Symlink(internalOp, dir, name, target)
		}
	case vfs.TypeRegular:
		up, err = fs.copyData(layer, src.ino, dir, name, attr)
	default:
		up, err = fs.upper.Mknod(internalOp, dir, name, attr.Type, attr.Mode, attr.Rdev)
	}
	if err != nil {
		return err
	}
	if up.UID != attr.UID || up.GID != attr.GID {
		if _, err := fs.upper.Setattr(internalOp, up.Ino, vfs.SetUID|vfs.SetGID, attr); err != nil {
			return err
		}
	}
	names, _ := layer.Listxattr(internalOp, src.ino) // none when the layer keeps no xattrs
	for _, x := range names {
		v, err := layer.Getxattr(internalOp, src.ino, x)
		if err == nil {
			err = fs.upper.Setxattr(internalOp, up.Ino, x, v, 0)
		}
		if err != nil {
			return err
		}
	}
	o.upper = up.Ino
	if attr.Type != vfs.TypeDirectory {
		o.lowers = nil
	}
	if ino, ok := fs.byObj[src]; ok {
		delete(fs.byObj, src)
		fs.byObj[o.key()] = ino
		fs.nodes[ino].obj = *o
	}
	return nil
}

// copyData copies a lower regular file's bytes into a new upper file.
func (fs *FS) copyData(layer vfs.FS, src, dir vfs.Ino, name string, attr vfs.Attr) (vfs.Attr, error) {
	lh, err := layer.Open(internalOp, src, vfs.ORdonly)
	if err != nil {
		return vfs.Attr{}, err
	}
	defer layer.Release(internalOp, lh)
	data := make([]byte, attr.Size)
	for off := 0; off < len(data); {
		n, err := layer.Read(internalOp, lh, int64(off), data[off:])
		if err != nil {
			return vfs.Attr{}, err
		}
		if n == 0 {
			data = data[:off]
			break
		}
		off += n
	}
	up, uh, err := fs.upper.Create(internalOp, dir, name, attr.Mode, vfs.OWronly)
	if err != nil {
		return vfs.Attr{}, err
	}
	_, err = fs.upper.Write(internalOp, uh, 0, data)
	if rerr := fs.upper.Release(internalOp, uh); err == nil {
		err = rerr
	}
	return up, err
}

// copyUpTree copies o, shown as name in the upper directory dir, into
// the upper layer: a directory with its whole merged subtree, marking
// each merged directory opaque so that lower content cannot resurface
// after a rename.
func (fs *FS) copyUpTree(dir vfs.Ino, name string, o *obj) error {
	if o.upper == 0 {
		if err := fs.copyIn(dir, name, o); err != nil {
			return err
		}
	}
	if len(o.lowers) == 0 {
		return nil
	}
	ents, err := fs.mergedReaddir(o)
	if err != nil {
		return err
	}
	for _, e := range ents {
		c, _, err := fs.resolve(o, e.Name)
		if err == nil {
			err = fs.copyUpTree(o.upper, e.Name, &c)
		}
		if err != nil {
			return err
		}
	}
	return fs.setOpaque(o)
}

// setOpaque hides every lower directory under o's upper one.
func (fs *FS) setOpaque(o *obj) error {
	if o.opaque {
		return nil
	}
	if _, err := fs.upper.Mknod(internalOp, o.upper, opaqueMarker, vfs.TypeRegular, 0, 0); err != nil {
		return err
	}
	o.lowers, o.opaque = nil, true
	if ino, ok := fs.byObj[o.key()]; ok {
		fs.nodes[ino].obj = *o
	}
	return nil
}

// hide whites name out of parent when a lower layer still holds it.
func (fs *FS) hide(parent vfs.Ino, name string) error {
	if !fs.lowerHas(&fs.nodes[parent].obj, name) {
		return nil
	}
	dir, err := fs.copyUp(parent)
	if err == nil {
		_, err = fs.upper.Mknod(internalOp, dir, whiteoutPrefix+name, vfs.TypeRegular, 0, 0)
	}
	return err
}

// empty fails with ENOTEMPTY unless the directory o lists nothing, and
// then clears the whiteouts and the opaque marker from its upper
// directory, so that the upper layer may remove or replace it.
func (fs *FS) empty(o *obj) error {
	ents, err := fs.mergedReaddir(o)
	if err == nil && len(ents) != 0 {
		return vfs.ENOTEMPTY
	}
	if err != nil || o.upper == 0 {
		return err
	}
	var names []string
	err = list(fs.upper, o.upper, func(e vfs.Dirent) {
		if strings.HasPrefix(e.Name, whiteoutPrefix) {
			names = append(names, e.Name)
		}
	})
	for _, name := range names {
		if err == nil {
			err = fs.upper.Unlink(internalOp, o.upper, name)
		}
	}
	return err
}

// list calls fn on each entry of the directory ino of layer.
func list(layer vfs.FS, ino vfs.Ino, fn func(vfs.Dirent)) error {
	h, err := layer.Opendir(internalOp, ino)
	if err != nil {
		return err
	}
	defer layer.Releasedir(internalOp, h)
	for off := int64(0); ; {
		ents, err := layer.Readdir(internalOp, h, off)
		if err != nil || len(ents) == 0 {
			return err
		}
		for _, e := range ents {
			off = e.Off
			fn(e)
		}
	}
}
