package unionfs

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"cntr/internal/vfs"
)

// Lookup implements vfs.FS.
func (fs *FS) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p, err := fs.node(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	switch {
	case name == ".":
		return fs.getattr(parent, p)
	case name == "..":
		if p.parent == 0 {
			return vfs.Attr{}, vfs.ENOENT
		}
		up := fs.nodes[p.parent]
		up.nlookup++
		return fs.getattr(p.parent, up)
	case strings.HasPrefix(name, whiteoutPrefix):
		return vfs.Attr{}, vfs.ENOENT // whiteouts are invisible
	}
	o, attr, err := fs.resolve(&p.obj, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = fs.reach(parent, name, o)
	return attr, nil
}

// Forget implements vfs.FS.
func (fs *FS) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[ino]
	if !ok {
		return
	}
	n.nlookup -= min(n.nlookup, nlookup)
	fs.drop(ino)
}

// getattr returns the attributes of the layer object n shows.
func (fs *FS) getattr(ino vfs.Ino, n *unode) (vfs.Attr, error) {
	l := n.key()
	attr, err := fs.layer(l.layer).Getattr(internalOp, l.ino)
	attr.Ino = ino
	return attr, err
}

// Getattr implements vfs.FS.
func (fs *FS) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.node(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	return fs.getattr(ino, n)
}

// Setattr implements vfs.FS (check, copy-up, then apply).
func (fs *FS) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	up, err := fs.checkedCopyUp(ino, func(a *vfs.Attr) error { return op.Cred.CheckSetattr(a, mask, &attr) })
	if err != nil {
		return vfs.Attr{}, err
	}
	out, err := fs.upper.Setattr(op, up, mask, attr)
	if err != nil {
		return vfs.Attr{}, err
	}
	out.Ino = ino
	return out, nil
}

// create makes name in parent with mk, which it hands the parent's upper
// directory, and counts a lookup of what mk made. A directory made over a
// whiteout is opaque.
func (fs *FS) create(parent vfs.Ino, name string, mk func(dir vfs.Ino) (vfs.Attr, error)) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p, err := fs.node(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	if _, _, err := fs.resolve(&p.obj, name); err == nil {
		return vfs.Attr{}, vfs.EEXIST
	}
	dir, err := fs.copyUp(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := mk(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	whited := fs.upper.Unlink(internalOp, dir, whiteoutPrefix+name) == nil
	o := obj{upper: attr.Ino}
	if whited && attr.Type == vfs.TypeDirectory {
		if err := fs.setOpaque(&o); err != nil {
			return vfs.Attr{}, err
		}
	}
	attr.Ino = fs.reach(parent, name, o)
	return attr, nil
}

// Mknod implements vfs.FS.
func (fs *FS) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	return fs.create(parent, name, func(dir vfs.Ino) (vfs.Attr, error) {
		return fs.upper.Mknod(op, dir, name, typ, mode, rdev)
	})
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	return fs.create(parent, name, func(dir vfs.Ino) (vfs.Attr, error) {
		return fs.upper.Mkdir(op, dir, name, mode)
	})
}

// Symlink implements vfs.FS.
func (fs *FS) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	return fs.create(parent, name, func(dir vfs.Ino) (vfs.Attr, error) {
		return fs.upper.Symlink(op, dir, name, target)
	})
}

// Link implements vfs.FS. Hard links work within the upper layer only
// (as in overlayfs, links to lower files copy up first), and a link
// shares its source's union inode.
func (fs *FS) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	return fs.create(parent, name, func(dir vfs.Ino) (vfs.Attr, error) {
		up, err := fs.copyUp(ino)
		if err != nil {
			return vfs.Attr{}, err
		}
		return fs.upper.Link(op, up, dir, name)
	})
}

// Create implements vfs.FS: the handle is the upper layer's own.
func (fs *FS) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	var h vfs.Handle
	attr, err := fs.create(parent, name, func(dir vfs.Ino) (a vfs.Attr, err error) {
		a, h, err = fs.upper.Create(op, dir, name, mode, flags)
		return a, err
	})
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	return attr, fileHandle(0, h), nil
}

// Readlink implements vfs.FS.
func (fs *FS) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.node(ino)
	if err != nil {
		return "", err
	}
	l := n.key()
	return fs.layer(l.layer).Readlink(op, l.ino)
}

// Unlink implements vfs.FS: delete from the upper layer and whiteout any
// lower copy.
func (fs *FS) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	return fs.remove(op, parent, name, false)
}

// Rmdir implements vfs.FS. The union directory must be empty.
func (fs *FS) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	return fs.remove(op, parent, name, true)
}

// remove deletes name from parent: from the upper layer, and from the
// lower ones by a whiteout. The whiteout is made with the internal
// credential, so the caller's permission is checked here, as memfs's
// Unlink and Rmdir check it.
func (fs *FS) remove(op *vfs.Op, parent vfs.Ino, name string, dir bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p, err := fs.node(parent)
	if err != nil {
		return err
	}
	pattr, err := fs.getattr(parent, p)
	if err != nil {
		return err
	}
	if c := op.Cred; !c.MayWrite(&pattr) || !c.MayExec(&pattr) {
		return vfs.EACCES
	}
	o, attr, err := fs.resolve(&p.obj, name)
	if err != nil {
		return err
	}
	switch isDir := attr.Type == vfs.TypeDirectory; {
	case dir && !isDir:
		return vfs.ENOTDIR
	case !dir && isDir:
		return vfs.EISDIR
	}
	if dir {
		if err := fs.empty(&o); err != nil {
			return err
		}
	}
	if op.Cred.StickyDenied(&pattr, &attr) {
		return vfs.EPERM
	}
	if o.upper != 0 {
		if dir {
			err = fs.upper.Rmdir(op, p.upper, name)
		} else {
			err = fs.upper.Unlink(op, p.upper, name)
		}
		if err != nil {
			return err
		}
	}
	if err := fs.hide(parent, name); err != nil {
		return err
	}
	fs.unlinked(parent, name, o)
	return nil
}

// Rename implements vfs.FS: copy-up the source, move it in the upper
// layer, whiteout the origin. Directory renames of lower trees copy the
// whole subtree up first. RENAME_EXCHANGE copies both ends up and swaps
// them in the upper layer, where no name goes away; a flag the union
// cannot honour is EINVAL, as in ovl_rename.
func (fs *FS) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	exchange := flags&vfs.RenameExchange != 0
	if flags&^(vfs.RenameNoReplace|vfs.RenameExchange) != 0 || exchange && flags&vfs.RenameNoReplace != 0 {
		return vfs.EINVAL
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	po, err := fs.node(oldParent)
	if err != nil {
		return err
	}
	pn, err := fs.node(newParent)
	if err != nil {
		return err
	}
	src, sattr, err := fs.resolve(&po.obj, oldName)
	if err != nil {
		return err
	}
	srcDir := sattr.Type == vfs.TypeDirectory
	dst, dattr, derr := fs.resolve(&pn.obj, newName)
	dstDir := dattr.Type == vfs.TypeDirectory
	if exchange && derr != nil {
		return derr
	}
	if derr == nil {
		switch {
		case flags&vfs.RenameNoReplace != 0:
			return vfs.EEXIST
		case src.key() == dst.key():
			return nil // two names of one object: both stay
		case exchange:
		case dstDir && !srcDir:
			return vfs.EISDIR
		case srcDir && !dstDir:
			return vfs.ENOTDIR
		case dstDir:
			if err := fs.empty(&dst); err != nil {
				return err
			}
		}
	}
	odir, err := fs.copyUp(oldParent)
	if err == nil {
		err = fs.copyUpTree(odir, oldName, &src)
	}
	if err != nil {
		return err
	}
	ndir, err := fs.copyUp(newParent)
	if err == nil && exchange {
		err = fs.copyUpTree(ndir, newName, &dst)
	}
	if err != nil {
		return err
	}
	if err := fs.upper.Rename(op, odir, oldName, ndir, newName, flags); err != nil {
		return err
	}
	fs.upper.Unlink(internalOp, ndir, whiteoutPrefix+newName) // the whiteout there, if any
	if srcDir && fs.lowerHas(&pn.obj, newName) {
		err = fs.setOpaque(&src)
	}
	if err == nil && exchange && dstDir && fs.lowerHas(&po.obj, oldName) {
		err = fs.setOpaque(&dst)
	}
	if err == nil && !exchange {
		err = fs.hide(oldParent, oldName)
	}
	if err != nil {
		return err
	}
	if ino, ok := fs.byObj[src.key()]; ok {
		fs.reparent(ino, newParent, newName)
	}
	if exchange {
		if ino, ok := fs.byObj[dst.key()]; ok {
			fs.reparent(ino, oldParent, oldName)
		}
	} else if derr == nil {
		fs.unlinked(newParent, newName, dst)
	}
	return nil
}

// Open implements vfs.FS: a writable open the caller may make forces
// copy-up.
func (fs *FS) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	fs.mu.Lock()
	n, err := fs.node(ino)
	if err == nil && flags.Writable() {
		_, err = fs.checkedCopyUp(ino, func(a *vfs.Attr) error { return op.Cred.CheckOpen(a, flags) })
	}
	var l layerIno
	if err == nil {
		l = n.key()
	}
	fs.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// A FIFO's open parks until its peer comes: outside the lock.
	h, err := fs.layer(l.layer).Open(op, l.ino, flags)
	if err != nil {
		return 0, err
	}
	return fileHandle(l.layer, h), nil
}

// A union file handle is its layer's own, with the layer's index, plus
// one, in the low bits; a directory handle's low bits are 0.
const layerBits = 8

func fileHandle(layer int, h vfs.Handle) vfs.Handle {
	return h<<layerBits | vfs.Handle(layer+1)
}

// file returns the layer and the layer's handle a file handle names.
func (fs *FS) file(h vfs.Handle) (vfs.FS, vfs.Handle, error) {
	l := int(h&(1<<layerBits-1)) - 1
	if l < 0 || l > len(fs.lowers) {
		return nil, 0, vfs.EBADF
	}
	return fs.layer(l), h >> layerBits, nil
}

// Read implements vfs.FS.
func (fs *FS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	layer, lh, err := fs.file(h)
	if err != nil {
		return 0, err
	}
	return layer.Read(op, lh, off, dest)
}

// Write implements vfs.FS.
func (fs *FS) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	layer, lh, err := fs.file(h)
	if err != nil {
		return 0, err
	}
	return layer.Write(op, lh, off, data)
}

// Flush implements vfs.FS.
func (fs *FS) Flush(op *vfs.Op, h vfs.Handle) error {
	layer, lh, err := fs.file(h)
	if err != nil {
		return err
	}
	return layer.Flush(op, lh)
}

// Fsync implements vfs.FS.
func (fs *FS) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	layer, lh, err := fs.file(h)
	if err != nil {
		return err
	}
	return layer.Fsync(op, lh, datasync)
}

// Release implements vfs.FS.
func (fs *FS) Release(op *vfs.Op, h vfs.Handle) error {
	layer, lh, err := fs.file(h)
	if err != nil {
		return err
	}
	return layer.Release(op, lh)
}

// Opendir implements vfs.FS; the merged listing is computed eagerly, and
// its cookies name entries across handles (mergedReaddir). ".." carries
// the inode of the parent the directory was reached from, the root's own
// at the root: a listing takes no lookup reference, and the directory's
// node pins its parent. A directory removed while held lists itself.
func (fs *FS) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.node(ino)
	if err != nil {
		return 0, err
	}
	ents, err := fs.mergedReaddir(&n.obj)
	if err != nil {
		return 0, err
	}
	parent := n.parent
	if parent == 0 {
		parent = ino
	}
	all := make([]vfs.Dirent, 0, len(ents)+2)
	all = append(all,
		vfs.Dirent{Name: ".", Ino: ino, Type: vfs.TypeDirectory, Off: 1},
		vfs.Dirent{Name: "..", Ino: parent, Type: vfs.TypeDirectory, Off: 2},
	)
	all = append(all, ents...)
	h := fs.nextH << layerBits
	fs.nextH++
	fs.dirs[h] = all
	return h, nil
}

// layerShift places a layer's rank above the layer's own cookies in a
// merged cookie; a layer's cookies stay below 1<<layerShift.
const layerShift = 56

// mergedReaddir unions the listings of the directory o's layers,
// applying whiteouts, excluding "."/"..", in cookie order. An entry's
// cookie is the one the lowest layer that shows its name gives it, under
// that layer's rank: 1 for the bottom lower, one more per layer above,
// the upper last. A copy-up then does not move an entry, and a cookie
// names the same entry on every handle, as the server's one-shot READDIR
// handle (fuse.MountOptions.NoOpendir) needs.
func (fs *FS) mergedReaddir(o *obj) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	seen := make(map[string]int) // name -> its position in out
	hidden := make(map[string]bool)
	collect := func(layer vfs.FS, ino vfs.Ino, rank int64) error {
		return list(layer, ino, func(e vfs.Dirent) {
			if e.Name == "." || e.Name == ".." || e.Name == opaqueMarker {
				return
			}
			if strings.HasPrefix(e.Name, whiteoutPrefix) {
				hidden[strings.TrimPrefix(e.Name, whiteoutPrefix)] = true
				return
			}
			if hidden[e.Name] {
				return
			}
			cookie := rank<<layerShift | e.Off
			if i, dup := seen[e.Name]; dup {
				out[i].Off = cookie // the upper entry, at the lower's place
				return
			}
			e.Off = cookie
			seen[e.Name] = len(out)
			out = append(out, e)
		})
	}
	top := int64(len(fs.lowers)) + 1
	if o.upper != 0 {
		if err := collect(fs.upper, o.upper, top); err != nil {
			return nil, err
		}
	}
	for _, l := range o.lowers {
		if err := collect(fs.layer(l.layer), l.ino, top-int64(l.layer)); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, func(a, b vfs.Dirent) int { return cmp.Compare(a.Off, b.Off) })
	return out, nil
}

// Readdir implements vfs.FS: the handle's entries whose cookie is above
// off.
func (fs *FS) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	fs.mu.Lock()
	ents, ok := fs.dirs[h]
	fs.mu.Unlock()
	if !ok {
		return nil, vfs.EBADF
	}
	i := sort.Search(len(ents), func(i int) bool { return ents[i].Off > off })
	if off < 0 || i == len(ents) {
		return nil, nil
	}
	return ents[i:len(ents):len(ents)], nil
}

// Releasedir implements vfs.FS.
func (fs *FS) Releasedir(op *vfs.Op, h vfs.Handle) error {
	fs.mu.Lock()
	_, ok := fs.dirs[h]
	delete(fs.dirs, h)
	fs.mu.Unlock()
	if !ok {
		return vfs.EBADF
	}
	return nil
}

// Statfs implements vfs.FS (upper layer's numbers).
func (fs *FS) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	return fs.upper.Statfs(op, vfs.RootIno)
}

// Setxattr implements vfs.FS.
func (fs *FS) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	up, err := fs.checkedCopyUp(ino, op.Cred.CheckXattr)
	if err != nil {
		return err
	}
	return fs.upper.Setxattr(op, up, name, value, flags)
}

// Getxattr implements vfs.FS.
func (fs *FS) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.node(ino)
	if err != nil {
		return nil, err
	}
	l := n.key()
	return fs.layer(l.layer).Getxattr(op, l.ino, name)
}

// Listxattr implements vfs.FS.
func (fs *FS) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.node(ino)
	if err != nil {
		return nil, err
	}
	l := n.key()
	return fs.layer(l.layer).Listxattr(op, l.ino)
}

// Removexattr implements vfs.FS.
func (fs *FS) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	up, err := fs.checkedCopyUp(ino, op.Cred.CheckXattr)
	if err != nil {
		return err
	}
	return fs.upper.Removexattr(op, up, name)
}

// Access implements vfs.FS.
func (fs *FS) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	attr, err := fs.Getattr(op, ino)
	if err != nil {
		return err
	}
	return op.Cred.CheckAccess(&attr, mask)
}

// Fallocate implements vfs.FS.
func (fs *FS) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	layer, lh, err := fs.file(h)
	if err != nil {
		return err
	}
	return layer.Fallocate(op, lh, mode, off, length)
}
