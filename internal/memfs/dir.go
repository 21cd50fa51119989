package memfs

import (
	"cmp"
	"slices"

	"cntr/internal/vfs"
)

// firstCookie is the cookie of a directory's first linked name: "." is 1
// and ".." is 2, as tmpfs numbers them (fs/libfs.c, DIR_OFFSET_MIN).
const firstCookie = 3

// entries are a directory's names. A name takes its cookie when it is
// linked, from a counter that only grows, so a cookie names one entry for
// the directory's life and a listing resumed after removals goes on where
// it left off: tmpfs's stable offsets (Linux 6.6, simple_offset_add and
// offset_readdir). The cookie rides in the name's map slot, so a link or
// an unlink costs no heap object beyond the map's own; a listing sorts
// only what it returns.
type entries struct {
	names  map[string]entry
	linked int64 // names ever linked: the next takes firstCookie+linked
}

type entry struct {
	ino    vfs.Ino
	cookie int64
}

func newEntries() entries { return entries{names: make(map[string]entry)} }

// len is the number of linked names.
func (d *entries) len() int { return len(d.names) }

func (d *entries) lookup(name string) (vfs.Ino, bool) {
	e, ok := d.names[name]
	return e.ino, ok
}

// link links name, which is not linked, to ino under the next cookie.
func (d *entries) link(name string, ino vfs.Ino) {
	d.names[name] = entry{ino, firstCookie + d.linked}
	d.linked++
}

// relink points name, which is linked, at ino under its own cookie, as
// RENAME_EXCHANGE swaps two entries' inodes in place.
func (d *entries) relink(name string, ino vfs.Ino) {
	e := d.names[name]
	e.ino = ino
	d.names[name] = e
}

// unlink removes name. Its cookie is never given again.
func (d *entries) unlink(name string) { delete(d.names, name) }

// countAfter returns how many names have a cookie above off.
func (d *entries) countAfter(off int64) int {
	if off >= firstCookie+d.linked-1 {
		return 0 // past the last cookie given
	}
	n := 0
	for _, e := range d.names {
		if e.cookie > off {
			n++
		}
	}
	return n
}

// appendAfter appends the names whose cookie is above off to out, in
// cookie order, each typed as its inode in inodes.
func (d *entries) appendAfter(out []vfs.Dirent, off int64, inodes map[vfs.Ino]*inode) []vfs.Dirent {
	start := len(out)
	for name, e := range d.names {
		if e.cookie > off {
			out = append(out, vfs.Dirent{Name: name, Ino: e.ino, Type: inodes[e.ino].attr.Type, Off: e.cookie})
		}
	}
	slices.SortFunc(out[start:], func(a, b vfs.Dirent) int { return cmp.Compare(a.Off, b.Off) })
	return out
}
