// Package unionfs implements a layered copy-on-write filesystem in the
// style of overlayfs: a stack of read-only lower layers (container image
// layers) under one writable upper layer. Lookups fall through the stack
// top-down; writes copy the file up into the writable layer; deletions
// leave whiteout markers so lower entries disappear from the union view.
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

// FS is the union filesystem. It implements vfs.FS by path: every union
// inode remembers the path it was looked up under, and operations
// re-resolve against the layer stack. This mirrors overlayfs, which is
// also path-based underneath.
type FS struct {
	upper  *memfs.FS // writable layer
	lowers []vfs.FS  // read-only layers, top-most first

	mu      sync.Mutex
	nodes   map[vfs.Ino]*unode
	byPath  map[string]vfs.Ino
	nextIno vfs.Ino
	handles map[vfs.Handle]handleRef
	nextH   vfs.Handle
}

type unode struct {
	path    string
	nlookup uint64
}

type handleRef struct {
	fs  vfs.FS
	h   vfs.Handle
	dir bool
	// ents is the merged directory listing when the handle was opened.
	ents []vfs.Dirent
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
		byPath:  make(map[string]vfs.Ino),
		nextIno: vfs.RootIno + 1,
		handles: make(map[vfs.Handle]handleRef),
		nextH:   1,
	}
	fs.nodes[vfs.RootIno] = &unode{path: "/", nlookup: 1}
	fs.byPath["/"] = vfs.RootIno
	return fs
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

func splitParent(path string) (string, string) {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/", path[i+1:]
	}
	return path[:i], path[i+1:]
}

// pathOf returns the union path of a union inode.
func (fs *FS) pathOf(ino vfs.Ino) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[ino]
	if !ok {
		return "", vfs.ESTALE
	}
	return n.path, nil
}

// register maps a union path to a stable union inode.
func (fs *FS) register(path string) vfs.Ino {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if ino, ok := fs.byPath[path]; ok {
		fs.nodes[ino].nlookup++
		return ino
	}
	ino := fs.nextIno
	fs.nextIno++
	fs.nodes[ino] = &unode{path: path, nlookup: 1}
	fs.byPath[path] = ino
	return ino
}

// root credential used for internal layer access: union-level permission
// checks already happened against the looked-up attributes.
var internalCred = vfs.Root()

// internalOp is the request context for that internal layer access.
var internalOp = vfs.NewOp(nil, internalCred)

// whiteoutExists reports whether the upper layer hides path.
func (fs *FS) whiteoutExists(path string) bool {
	dir, name := splitParent(path)
	_, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, joinPath(dir, whiteoutPrefix+name), false)
	return err == nil
}

// dirOpaque reports whether the upper copy of dir is opaque.
func (fs *FS) dirOpaque(path string) bool {
	_, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, joinPath(path, opaqueMarker), false)
	return err == nil
}

// findLayer locates path in the layer stack: the upper layer first, then
// lower layers unless a whiteout or opaque directory hides them.
// It returns the serving filesystem, the layer-local walk result, and
// whether it came from the upper (writable) layer.
func (fs *FS) findLayer(path string) (vfs.FS, vfs.WalkResult, bool, error) {
	if fs.whiteoutExists(path) {
		return nil, vfs.WalkResult{}, false, vfs.ENOENT
	}
	// Opaque/whiteout checks apply along every ancestor.
	if hidden := fs.ancestorsHidden(path); hidden {
		return nil, vfs.WalkResult{}, false, vfs.ENOENT
	}
	if res, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false); err == nil {
		return fs.upper, res, true, nil
	}
	for _, lower := range fs.lowers {
		if fs.pathOpaquedAbove(path) {
			break
		}
		res, err := vfs.Walk(lower, internalOp, vfs.RootIno, path, false)
		if err == nil {
			return lower, res, false, nil
		}
	}
	return nil, vfs.WalkResult{}, false, vfs.ENOENT
}

// ancestorsHidden checks whiteouts on each ancestor of path.
func (fs *FS) ancestorsHidden(path string) bool {
	parts := vfs.SplitPath(path)
	cur := ""
	for i := 0; i < len(parts)-1; i++ {
		cur += "/" + parts[i]
		if fs.whiteoutExists(cur) {
			return true
		}
	}
	return false
}

// pathOpaquedAbove reports whether some ancestor directory is opaque in
// the upper layer, hiding lower content beneath it.
func (fs *FS) pathOpaquedAbove(path string) bool {
	parts := vfs.SplitPath(path)
	cur := ""
	for i := 0; i < len(parts); i++ {
		if fs.dirOpaque(cur + "/") {
			return true
		}
		cur += "/" + parts[i]
		if fs.dirOpaque(cur) {
			return true
		}
	}
	return false
}

// ensureUpperDir replicates the directory chain of path (exclusive) into
// the upper layer so a copy-up target has parents.
func (fs *FS) ensureUpperDir(dir string) error {
	parts := vfs.SplitPath(dir)
	cur := ""
	cli := vfs.NewClient(fs.upper, internalCred)
	for _, p := range parts {
		cur += "/" + p
		if _, err := cli.Lstat(cur); err == nil {
			continue
		}
		// Mirror the lower directory's attributes if it exists.
		mode := vfs.Mode(0o755)
		var uid, gid uint32
		if lfs, res, _, err := fs.findLayer(cur); err == nil && lfs != nil {
			mode = res.Attr.Mode
			uid, gid = res.Attr.UID, res.Attr.GID
		}
		if err := cli.Mkdir(cur, mode); err != nil {
			return err
		}
		if uid != 0 || gid != 0 {
			cli.Chown(cur, uid, gid)
		}
	}
	return nil
}

// copyUp copies path from a lower layer into the upper layer, preserving
// data, mode, ownership and xattrs. No-op if already in the upper layer.
func (fs *FS) copyUp(path string) error {
	if _, err := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false); err == nil {
		return nil
	}
	layer, res, isUpper, err := fs.findLayer(path)
	if err != nil {
		return err
	}
	if isUpper {
		return nil
	}
	dir, _ := splitParent(path)
	if err := fs.ensureUpperDir(dir); err != nil {
		return err
	}
	upCli := vfs.NewClient(fs.upper, internalCred)
	switch res.Attr.Type {
	case vfs.TypeDirectory:
		if err := upCli.Mkdir(path, res.Attr.Mode); err != nil && vfs.ToErrno(err) != vfs.EEXIST {
			return err
		}
	case vfs.TypeSymlink:
		target, err := layer.Readlink(internalOp, res.Ino)
		if err != nil {
			return err
		}
		if err := upCli.Symlink(target, path); err != nil {
			return err
		}
	default:
		loCli := vfs.NewClient(layer, internalCred)
		data, err := loCli.ReadFile(path)
		if err != nil {
			return err
		}
		if err := upCli.WriteFile(path, data, res.Attr.Mode); err != nil {
			return err
		}
	}
	upCli.Chown(path, res.Attr.UID, res.Attr.GID)
	// Copy xattrs.
	if names, err := layer.Listxattr(internalOp, res.Ino); err == nil {
		upRes, uerr := vfs.Walk(fs.upper, internalOp, vfs.RootIno, path, false)
		if uerr == nil {
			for _, name := range names {
				if v, gerr := layer.Getxattr(internalOp, res.Ino, name); gerr == nil {
					fs.upper.Setxattr(internalOp, upRes.Ino, name, v, 0)
				}
			}
		}
	}
	return nil
}

// removeWhiteout clears a whiteout for path in the upper layer, if any.
func (fs *FS) removeWhiteout(path string) {
	dir, name := splitParent(path)
	cli := vfs.NewClient(fs.upper, internalCred)
	cli.Remove(joinPath(dir, whiteoutPrefix+name))
}

// addWhiteout hides path. Needed only when a lower layer still has the
// entry.
func (fs *FS) addWhiteout(path string) error {
	existsBelow := false
	for _, lower := range fs.lowers {
		if _, err := vfs.Walk(lower, internalOp, vfs.RootIno, path, false); err == nil {
			existsBelow = true
			break
		}
	}
	if !existsBelow {
		return nil
	}
	dir, name := splitParent(path)
	if err := fs.ensureUpperDir(dir); err != nil {
		return err
	}
	cli := vfs.NewClient(fs.upper, internalCred)
	return cli.WriteFile(joinPath(dir, whiteoutPrefix+name), nil, 0o000)
}
