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
	ppath, err := fs.pathOf(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	if name == "." {
		return fs.Getattr(op, parent)
	}
	if name == ".." {
		dir, _ := splitParent(ppath)
		ino := fs.register(dir)
		attr, gerr := fs.Getattr(op, ino)
		return attr, gerr
	}
	if strings.HasPrefix(name, whiteoutPrefix) {
		return vfs.Attr{}, vfs.ENOENT // whiteouts are invisible
	}
	path := joinPath(ppath, name)
	_, res, _, err := fs.findLayer(path)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr := res.Attr
	attr.Ino = fs.register(path)
	return attr, nil
}

// Forget implements vfs.FS.
func (fs *FS) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[ino]
	if !ok || ino == vfs.RootIno {
		return
	}
	if n.nlookup <= nlookup {
		delete(fs.nodes, ino)
		if cur, ok := fs.byPath[n.path]; ok && cur == ino {
			delete(fs.byPath, n.path)
		}
		return
	}
	n.nlookup -= nlookup
}

// Getattr implements vfs.FS.
func (fs *FS) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	if path == "/" {
		// Root: upper root attrs.
		attr, gerr := fs.upper.Getattr(internalOp, vfs.RootIno)
		if gerr != nil {
			return vfs.Attr{}, gerr
		}
		attr.Ino = vfs.RootIno
		return attr, nil
	}
	_, res, _, err := fs.findLayer(path)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr := res.Attr
	attr.Ino = ino
	return attr, nil
}

// Setattr implements vfs.FS (copy-up then apply).
func (fs *FS) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	if err := fs.copyUp(path); err != nil {
		return vfs.Attr{}, err
	}
	res, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false)
	if err != nil {
		return vfs.Attr{}, err
	}
	out, err := fs.upper.Setattr(op, res.Ino, mask, attr)
	if err != nil {
		return vfs.Attr{}, err
	}
	out.Ino = ino
	return out, nil
}

// create runs an upper-layer creation op at parent/name.
func (fs *FS) create(parent vfs.Ino, name string, op func(dir vfs.Ino) (vfs.Attr, error)) (vfs.Attr, error) {
	ppath, err := fs.pathOf(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	path := joinPath(ppath, name)
	if _, _, _, err := fs.findLayer(path); err == nil {
		return vfs.Attr{}, vfs.EEXIST
	}
	if err := fs.ensureUpperDir(ppath); err != nil {
		return vfs.Attr{}, err
	}
	fs.removeWhiteout(path)
	res, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, ppath, true)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := op(res.Ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = fs.register(path)
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

// Readlink implements vfs.FS.
func (fs *FS) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return "", err
	}
	layer, res, _, err := fs.findLayer(path)
	if err != nil {
		return "", err
	}
	return layer.Readlink(op, res.Ino)
}

// Unlink implements vfs.FS: delete from the upper layer and whiteout any
// lower copy.
func (fs *FS) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	ppath, err := fs.pathOf(parent)
	if err != nil {
		return err
	}
	path := joinPath(ppath, name)
	_, res, isUpper, err := fs.findLayer(path)
	if err != nil {
		return err
	}
	if res.Attr.Type == vfs.TypeDirectory {
		return vfs.EISDIR
	}
	if isUpper {
		upDir, leaf := splitParent(path)
		dres, derr := vfs.Walk(fs.upper, internalOp, vfs.RootIno, upDir, true)
		if derr != nil {
			return derr
		}
		if err := fs.upper.Unlink(op, dres.Ino, leaf); err != nil {
			return err
		}
	}
	if err := fs.addWhiteout(path); err != nil {
		return err
	}
	fs.dropPath(path)
	return nil
}

// Rmdir implements vfs.FS. The union directory must be empty.
func (fs *FS) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	ppath, err := fs.pathOf(parent)
	if err != nil {
		return err
	}
	path := joinPath(ppath, name)
	_, res, isUpper, err := fs.findLayer(path)
	if err != nil {
		return err
	}
	if res.Attr.Type != vfs.TypeDirectory {
		return vfs.ENOTDIR
	}
	ents, err := fs.mergedReaddir(op, path)
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return vfs.ENOTEMPTY
	}
	if isUpper {
		upDir, leaf := splitParent(path)
		dres, derr := vfs.Walk(fs.upper, internalOp, vfs.RootIno, upDir, true)
		if derr != nil {
			return derr
		}
		// Clear marker files before removing.
		upCli := vfs.NewClient(fs.upper, internalCred)
		upCli.Remove(joinPath(path, opaqueMarker))
		if werr := fs.clearWhiteoutsIn(path); werr != nil {
			return werr
		}
		if err := fs.upper.Rmdir(op, dres.Ino, leaf); err != nil {
			return err
		}
	}
	if err := fs.addWhiteout(path); err != nil {
		return err
	}
	fs.dropPath(path)
	return nil
}

func (fs *FS) clearWhiteoutsIn(path string) error {
	upCli := vfs.NewClient(fs.upper, internalCred)
	ents, err := upCli.ReadDir(path)
	if err != nil {
		if vfs.ToErrno(err) == vfs.ENOENT {
			return nil
		}
		return err
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name, whiteoutPrefix) {
			if err := upCli.Remove(joinPath(path, e.Name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropPath invalidates the path→ino binding after a removal so a future
// entry at the same path gets a fresh inode.
func (fs *FS) dropPath(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.byPath, path)
}

// Rename implements vfs.FS: copy-up the source, move it in the upper
// layer, whiteout the origin. Directory renames of lower trees copy the
// whole subtree up first.
func (fs *FS) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	opath, err := fs.pathOf(oldParent)
	if err != nil {
		return err
	}
	npath, err := fs.pathOf(newParent)
	if err != nil {
		return err
	}
	src := joinPath(opath, oldName)
	dst := joinPath(npath, newName)
	_, res, _, err := fs.findLayer(src)
	if err != nil {
		return err
	}
	if _, dres, _, derr := fs.findLayer(dst); derr == nil {
		if flags&vfs.RenameNoReplace != 0 {
			return vfs.EEXIST
		}
		if dres.Attr.Type == vfs.TypeDirectory {
			ents, eerr := fs.mergedReaddir(op, dst)
			if eerr != nil {
				return eerr
			}
			if len(ents) != 0 {
				return vfs.ENOTEMPTY
			}
		}
	}
	if res.Attr.Type == vfs.TypeDirectory {
		if err := fs.copyUpTree(src); err != nil {
			return err
		}
	} else if err := fs.copyUp(src); err != nil {
		return err
	}
	if err := fs.ensureUpperDir(npath); err != nil {
		return err
	}
	sres, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, opath, true)
	if err != nil {
		return err
	}
	dres, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, npath, true)
	if err != nil {
		return err
	}
	// Remove any whiteout at the destination, then move in the upper.
	fs.removeWhiteout(dst)
	upCli := vfs.NewClient(fs.upper, internalCred)
	upCli.RemoveAll(dst)
	if err := fs.upper.Rename(op, sres.Ino, oldName, dres.Ino, newName, 0); err != nil {
		return err
	}
	if err := fs.addWhiteout(src); err != nil {
		return err
	}
	fs.mu.Lock()
	delete(fs.byPath, src)
	delete(fs.byPath, dst)
	fs.mu.Unlock()
	return nil
}

// copyUpTree copies a whole directory subtree into the upper layer and
// marks the directory opaque so lower content cannot resurface after a
// rename.
func (fs *FS) copyUpTree(path string) error {
	if err := fs.copyUp(path); err != nil {
		return err
	}
	ents, err := fs.mergedReaddir(internalOp, path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		child := joinPath(path, e.Name)
		if e.Type == vfs.TypeDirectory {
			if err := fs.copyUpTree(child); err != nil {
				return err
			}
		} else if err := fs.copyUp(child); err != nil {
			return err
		}
	}
	upCli := vfs.NewClient(fs.upper, internalCred)
	return upCli.WriteFile(joinPath(path, opaqueMarker), nil, 0o000)
}

// Link implements vfs.FS. Hard links work within the upper layer only
// (as in overlayfs, links to lower files copy up first).
func (fs *FS) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	if err := fs.copyUp(path); err != nil {
		return vfs.Attr{}, err
	}
	src, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false)
	if err != nil {
		return vfs.Attr{}, err
	}
	return fs.create(parent, name, func(dir vfs.Ino) (vfs.Attr, error) {
		return fs.upper.Link(op, src.Ino, dir, name)
	})
}

// Create implements vfs.FS.
func (fs *FS) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	attr, err := fs.create(parent, name, func(dir vfs.Ino) (vfs.Attr, error) {
		a, _, err := fs.upper.Create(op, dir, name, mode, flags&^vfs.OpenFlags(0))
		if err != nil {
			return vfs.Attr{}, err
		}
		return a, nil
	})
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	// Re-open to obtain a handle (the inner create's handle was dropped
	// for simplicity of the closure; open is cheap on memfs).
	h, err := fs.Open(op, attr.Ino, flags)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	return attr, h, nil
}

// Open implements vfs.FS: writable opens force copy-up.
func (fs *FS) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return 0, err
	}
	if flags.Writable() {
		if err := fs.copyUp(path); err != nil {
			return 0, err
		}
	}
	layer, res, _, err := fs.findLayer(path)
	if err != nil {
		if path == "/" {
			layer, res.Ino = fs.upper, vfs.RootIno
		} else {
			return 0, err
		}
	}
	lh, err := layer.Open(op, res.Ino, flags)
	if err != nil {
		return 0, err
	}
	fs.mu.Lock()
	h := fs.nextH
	fs.nextH++
	fs.handles[h] = handleRef{fs: layer, h: lh}
	fs.mu.Unlock()
	return h, nil
}

func (fs *FS) handleRef(h vfs.Handle) (handleRef, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ref, ok := fs.handles[h]
	if !ok {
		return handleRef{}, vfs.EBADF
	}
	return ref, nil
}

// Read implements vfs.FS.
func (fs *FS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	ref, err := fs.handleRef(h)
	if err != nil {
		return 0, err
	}
	return ref.fs.Read(op, ref.h, off, dest)
}

// Write implements vfs.FS.
func (fs *FS) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	ref, err := fs.handleRef(h)
	if err != nil {
		return 0, err
	}
	return ref.fs.Write(op, ref.h, off, data)
}

// Flush implements vfs.FS.
func (fs *FS) Flush(op *vfs.Op, h vfs.Handle) error {
	ref, err := fs.handleRef(h)
	if err != nil {
		return err
	}
	return ref.fs.Flush(op, ref.h)
}

// Fsync implements vfs.FS.
func (fs *FS) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	ref, err := fs.handleRef(h)
	if err != nil {
		return err
	}
	return ref.fs.Fsync(op, ref.h, datasync)
}

// Release implements vfs.FS.
func (fs *FS) Release(op *vfs.Op, h vfs.Handle) error {
	fs.mu.Lock()
	ref, ok := fs.handles[h]
	delete(fs.handles, h)
	fs.mu.Unlock()
	if !ok {
		return vfs.EBADF
	}
	return ref.fs.Release(op, ref.h)
}

// Opendir implements vfs.FS; the merged listing is computed eagerly, and
// its cookies name entries across handles (mergedReaddir). ".." carries
// the parent's inode, the root's own at the root, as registered by the
// lookup that reached this directory: a listing takes no lookup
// reference. A parent forgotten under a directory still held, which the
// kernel's dentry tree does not do (a dentry pins its parent), lists as
// the directory itself.
func (fs *FS) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return 0, err
	}
	ents, err := fs.mergedReaddir(op, path)
	if err != nil {
		return 0, err
	}
	dir, _ := splitParent(path)
	fs.mu.Lock()
	parent, ok := fs.byPath[dir]
	fs.mu.Unlock()
	if !ok {
		parent = ino
	}
	all := make([]vfs.Dirent, 0, len(ents)+2)
	all = append(all,
		vfs.Dirent{Name: ".", Ino: ino, Type: vfs.TypeDirectory, Off: 1},
		vfs.Dirent{Name: "..", Ino: parent, Type: vfs.TypeDirectory, Off: 2},
	)
	all = append(all, ents...)
	fs.mu.Lock()
	h := fs.nextH
	fs.nextH++
	fs.handles[h] = handleRef{dir: true, ents: all}
	fs.mu.Unlock()
	return h, nil
}

// layerShift places a layer's rank above the layer's own cookies in a
// merged cookie; a layer's cookies stay below 1<<layerShift.
const layerShift = 56

// mergedReaddir unions directory listings across layers, applying
// whiteouts and opacity, excluding "."/"..", in cookie order. An entry's
// cookie is the one the lowest layer that shows its name gives it, under
// that layer's rank: 1 for the bottom lower, one more per layer above,
// the upper last. A copy-up then does not move an entry, and a cookie
// names the same entry on every handle, as the server's one-shot READDIR
// handle (fuse.MountOptions.NoOpendir) needs.
func (fs *FS) mergedReaddir(op *vfs.Op, path string) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	seen := make(map[string]int) // name -> its position in out
	hidden := make(map[string]bool)
	found := false

	collect := func(layer vfs.FS, rank int64) error {
		res, err := vfs.Walk(layer, internalOp, vfs.RootIno, path, true)
		if err != nil {
			return err
		}
		if res.Attr.Type != vfs.TypeDirectory {
			return vfs.ENOTDIR
		}
		found = true
		h, err := layer.Opendir(internalOp, res.Ino)
		if err != nil {
			return err
		}
		defer layer.Releasedir(internalOp, h)
		off := int64(0)
		for {
			ents, err := layer.Readdir(internalOp, h, off)
			if err != nil {
				return err
			}
			if len(ents) == 0 {
				return nil
			}
			for _, e := range ents {
				off = e.Off
				if e.Name == "." || e.Name == ".." || e.Name == opaqueMarker {
					continue
				}
				if strings.HasPrefix(e.Name, whiteoutPrefix) {
					hidden[strings.TrimPrefix(e.Name, whiteoutPrefix)] = true
					continue
				}
				if hidden[e.Name] {
					continue
				}
				cookie := rank<<layerShift | e.Off
				if i, dup := seen[e.Name]; dup {
					out[i].Off = cookie // the upper entry, at the lower's place
					continue
				}
				e.Off = cookie
				seen[e.Name] = len(out)
				out = append(out, e)
			}
		}
	}

	rank := int64(len(fs.lowers)) + 1
	if err := collect(fs.upper, rank); err != nil && vfs.ToErrno(err) != vfs.ENOENT {
		return nil, err
	}
	if !fs.dirOpaque(path) && !fs.whiteoutExists(path) {
		for _, lower := range fs.lowers {
			rank--
			if err := collect(lower, rank); err != nil && vfs.ToErrno(err) != vfs.ENOENT {
				return nil, err
			}
		}
	}
	if !found {
		return nil, vfs.ENOENT
	}
	slices.SortFunc(out, func(a, b vfs.Dirent) int { return cmp.Compare(a.Off, b.Off) })
	return out, nil
}

// Readdir implements vfs.FS: the handle's entries whose cookie is above
// off.
func (fs *FS) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	fs.mu.Lock()
	ref, ok := fs.handles[h]
	fs.mu.Unlock()
	if !ok {
		return nil, vfs.EBADF
	}
	if !ref.dir {
		return nil, vfs.ENOTDIR
	}
	i := sort.Search(len(ref.ents), func(i int) bool { return ref.ents[i].Off > off })
	if off < 0 || i == len(ref.ents) {
		return nil, nil
	}
	return ref.ents[i:len(ref.ents):len(ref.ents)], nil
}

// Releasedir implements vfs.FS.
func (fs *FS) Releasedir(op *vfs.Op, h vfs.Handle) error {
	fs.mu.Lock()
	_, ok := fs.handles[h]
	delete(fs.handles, h)
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
	path, err := fs.pathOf(ino)
	if err != nil {
		return err
	}
	if err := fs.copyUp(path); err != nil {
		return err
	}
	res, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false)
	if err != nil {
		return err
	}
	return fs.upper.Setxattr(op, res.Ino, name, value, flags)
}

// Getxattr implements vfs.FS.
func (fs *FS) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return nil, err
	}
	layer, res, _, err := fs.findLayer(path)
	if err != nil {
		return nil, err
	}
	return layer.Getxattr(op, res.Ino, name)
}

// Listxattr implements vfs.FS.
func (fs *FS) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	path, err := fs.pathOf(ino)
	if err != nil {
		return nil, err
	}
	layer, res, _, err := fs.findLayer(path)
	if err != nil {
		return nil, err
	}
	return layer.Listxattr(op, res.Ino)
}

// Removexattr implements vfs.FS.
func (fs *FS) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	path, err := fs.pathOf(ino)
	if err != nil {
		return err
	}
	if err := fs.copyUp(path); err != nil {
		return err
	}
	res, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false)
	if err != nil {
		return err
	}
	return fs.upper.Removexattr(op, res.Ino, name)
}

// Access implements vfs.FS.
func (fs *FS) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	attr, err := fs.Getattr(op, ino)
	if err != nil {
		return err
	}
	c := op.Cred
	if mask&vfs.AccessRead != 0 && !c.MayRead(&attr) {
		return vfs.EACCES
	}
	if mask&vfs.AccessWrite != 0 && !c.MayWrite(&attr) {
		return vfs.EACCES
	}
	if mask&vfs.AccessExec != 0 && !c.MayExec(&attr) {
		return vfs.EACCES
	}
	return nil
}

// Fallocate implements vfs.FS.
func (fs *FS) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	ref, err := fs.handleRef(h)
	if err != nil {
		return err
	}
	return ref.fs.Fallocate(op, ref.h, mode, off, length)
}
