package vfs

import (
	"path"
	"strings"
)

// Pos is a position in the file hierarchy: an inode named by the
// filesystem serving it. Walks start from one, mount tables hand out the
// root of each mount as one, and a Client is confined to one.
type Pos struct {
	FS  FS
	Ino Ino
	// Path is the position's lexical path in the mount table, symlinks
	// resolved. It is tracked only when the walk has a mount table.
	Path string
	// ReadOnly is the read-only bit of the mount serving the position.
	ReadOnly bool
}

// MountTable is what the walker needs to know about a mount namespace.
// Paths are normalized and absolute.
type MountTable interface {
	// MountedAt returns the root of the mount exactly at path.
	MountedAt(path string) (Pos, bool)
	// MountedBelow reports whether a mount point lies strictly beneath
	// path; such a path can be walked through even when no directory
	// backs it.
	MountedBelow(path string) bool
}

// WalkResult is the outcome of resolving a path: the position and
// attributes of the final component, and its parent directory plus leaf
// name (useful for create/unlink-style operations). Parent is an inode of
// the same filesystem; it is zero when the final component is the root of
// a mount, whose parent directory belongs to another filesystem. When
// only the leaf is missing, the error comes with FS, ReadOnly, Parent and
// Leaf set so callers can create it.
type WalkResult struct {
	Pos
	Attr   Attr
	Parent Ino
	Leaf   string
}

// SplitPath normalizes a slash-separated path into components, dropping
// empty components and ".". It does not resolve "..": that is the
// walker's job, since ".." must be interpreted against the directory
// being walked.
func SplitPath(path string) []string {
	out := make([]string, 0, strings.Count(path, "/")+1)
	for name, rest := nextComponent(path); name != ""; name, rest = nextComponent(rest) {
		out = append(out, name)
	}
	return out
}

// nextComponent splits the first component that is neither empty nor "."
// off path, in place; name is empty when there is none left.
func nextComponent(path string) (name, rest string) {
	for rest = path; rest != ""; {
		if name, rest, _ = strings.Cut(rest, "/"); name != "" && name != "." {
			return name, rest
		}
	}
	return "", ""
}

// walk resolves path from root, crossing the mounts of table when there
// is one.
func walk(root Pos, table MountTable, op *Op, path string, followLeaf bool) (WalkResult, error) {
	w := walker{op: op, root: root, mounts: table, follow: followLeaf}
	return w.walk(root, path, 0)
}

// walker is the one component-stepping loop: every path the system
// resolves, on one filesystem or across a mount namespace, chrooted or
// not, goes through it.
type walker struct {
	op *Op
	// root is where ".." stays put and absolute symlink targets restart.
	root   Pos
	mounts MountTable // nil on a single filesystem
	follow bool
}

// enter stats the position a walk starts from or crosses a mount onto.
func (w *walker) enter(at Pos) (Attr, error) {
	if err := w.op.Err(); err != nil {
		return Attr{}, err
	}
	return at.FS.Getattr(w.op, at.Ino)
}

func (w *walker) walk(at Pos, rel string, depth int) (WalkResult, error) {
	if depth > MaxSymlinkDepth {
		return WalkResult{}, ELOOP
	}
	attr, err := w.enter(at)
	if err != nil {
		return WalkResult{}, err
	}
	// res.Pos is the current position. Its FS is nil on a synthetic
	// directory: a path that exists only as a prefix of deeper mount
	// points, with no directory backing it.
	res := WalkResult{Pos: at, Attr: attr, Parent: at.Ino, Leaf: "."}
	for name, rest := nextComponent(rel); name != ""; name, rest = nextComponent(rest) {
		following, _ := nextComponent(rest)
		last := following == ""
		if len(name) > MaxNameLen {
			return WalkResult{}, ENAMETOOLONG
		}
		if res.FS != nil {
			if res.Attr.Type != TypeDirectory {
				return WalkResult{}, ENOTDIR
			}
			if !w.op.Cred.MayExec(&res.Attr) {
				return WalkResult{}, EACCES
			}
		}
		if name == ".." && res.Ino == w.root.Ino && res.Path == w.root.Path {
			continue // the root is its own parent
		}
		next := "" // res.Path after this step
		if w.mounts != nil {
			if name == ".." {
				next = path.Dir(res.Path)
				if _, mounted := w.mounts.MountedAt(res.Path); mounted || res.FS == nil {
					// The parent of a mount root (or of a synthetic
					// directory) is not reachable through this
					// filesystem: re-walk to it from the root.
					return w.walk(w.root, strings.TrimPrefix(next, w.root.Path)+"/"+rest, depth)
				}
			} else {
				next = path.Join(res.Path, name)
				// A mount exactly at next shadows whatever lies under it.
				if m, ok := w.mounts.MountedAt(next); ok {
					if attr, err = w.enter(m); err != nil {
						return WalkResult{}, err
					}
					res = WalkResult{Pos: m, Attr: attr, Leaf: name}
					continue
				}
			}
		}
		// Parent resolution is delegated to the filesystem via the ".."
		// entry every directory carries.
		attr, err = Attr{}, ENOENT
		if res.FS != nil {
			attr, err = res.FS.Lookup(w.op, res.Ino, name)
		}
		if err != nil {
			if w.mounts != nil && !last && ToErrno(err) == ENOENT && w.mounts.MountedBelow(next) {
				res = WalkResult{Pos: Pos{Path: next}}
				continue
			}
			if last && res.FS != nil {
				// Report the parent so callers can create the leaf.
				return WalkResult{Pos: Pos{FS: res.FS, ReadOnly: res.ReadOnly}, Parent: res.Ino, Leaf: name}, err
			}
			return WalkResult{}, err
		}
		if attr.Type == TypeSymlink && (!last || w.follow) {
			target, rerr := res.FS.Readlink(w.op, attr.Ino)
			res.FS.Forget(w.op, attr.Ino, 1)
			if rerr != nil {
				return WalkResult{}, rerr
			}
			base := res.Pos
			if strings.HasPrefix(target, "/") {
				base = w.root
			}
			joined := target
			if !last {
				joined = target + "/" + rest
			}
			return w.walk(base, joined, depth+1)
		}
		res = WalkResult{
			Pos:    Pos{FS: res.FS, Ino: attr.Ino, Path: next, ReadOnly: res.ReadOnly},
			Attr:   attr,
			Parent: res.Ino,
			Leaf:   name,
		}
	}
	return res, nil
}
