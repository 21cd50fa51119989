package policy

import (
	"strings"

	"cntr/internal/vfs"
)

// pathTable is one mount's inode→path table, learned from the operations
// flowing past: a Lookup, Create, Mkdir, Mknod, Symlink or Link carries
// the parent inode, the entry name and the inode it resolved or created,
// so neither the recorder (Run) nor the Enforcer needs a side channel
// into the filesystem. Its owner holds the lock that guards it.
type pathTable struct {
	paths map[vfs.Ino]string
}

// newPathTable returns a table that knows only the root.
func newPathTable() pathTable {
	return pathTable{paths: map[vfs.Ino]string{vfs.RootIno: "/"}}
}

// dir is the learned path of ino: the directory an operation on one of
// its entries is rooted at, or the target of an operation on ino itself.
// Empty when the table never saw ino resolved.
func (t *pathTable) dir(ino vfs.Ino) string { return t.paths[ino] }

// learn updates the table after info's operation returned err. dir is
// t.dir(info.Ino): the Enforcer reads it before the operation runs, to
// gate it, and a Run after, to anchor it.
func (t *pathTable) learn(info *vfs.OpInfo, dir string, err error) {
	if res := info.ResultIno; res != 0 && dir != "" && !isEntryPath(t.paths[res], dir, info.Name) {
		// The operation resolved or created an inode: bind its path. The
		// string is built only when the binding changes, since every
		// lookup of every path walk comes through here.
		t.paths[res] = entryPath(dir, info.Name)
	}
	if info.Kind == vfs.KindRename && err == nil {
		// Renamed subtrees keep resolving to their current path, so
		// later operations report where the files live now.
		t.rebind(entryPath(dir, info.Name), t.renameTarget(info.NewParentIno, info.NewName))
	}
	if info.Kind == vfs.KindForget && info.Ino != vfs.RootIno {
		// The kernel dropped its references: drop the binding too, so the
		// table stays bounded by live lookups (a later Lookup relearns it).
		delete(t.paths, info.Ino)
	}
}

// rebind moves a renamed subtree: every binding at oldPath or beneath it
// is rewritten under newPath. Renames are rare, so the linear scan is
// fine.
func (t *pathTable) rebind(oldPath, newPath string) {
	if oldPath == "" || newPath == "" || oldPath == newPath {
		return
	}
	prefix := oldPath + "/"
	for ino, p := range t.paths {
		if p == oldPath {
			t.paths[ino] = newPath
		} else if strings.HasPrefix(p, prefix) {
			t.paths[ino] = newPath + p[len(oldPath):]
		}
	}
}

// renameTarget is a rename's destination path; empty when the
// destination directory is unknown.
func (t *pathTable) renameTarget(newParent vfs.Ino, newName string) string {
	p, ok := t.paths[newParent]
	if !ok {
		return ""
	}
	return pathJoin(p, newName)
}

// pathJoin appends a directory entry name to a directory path.
func pathJoin(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// entryPath is the target path of an operation on the entry name of the
// directory at dir, or on dir itself without a name; empty when dir, the
// learned path of the operation's inode, is.
func entryPath(dir, name string) string {
	if dir == "" || name == "" {
		return dir
	}
	return pathJoin(dir, name)
}

// isEntryPath reports whether p is entryPath(dir, name), without building
// it.
func isEntryPath(p, dir, name string) bool {
	if dir == "" || name == "" {
		return p == dir
	}
	if dir == "/" {
		dir = ""
	}
	return len(p) == len(dir)+1+len(name) && p[:len(dir)] == dir && p[len(dir)] == '/' && p[len(dir)+1:] == name
}
