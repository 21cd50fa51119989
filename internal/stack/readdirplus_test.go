package stack

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// plusDirs are the directories TestReaddirPlusDifferential lists, by the
// entries each is seeded with: none, one, either side of a READDIRPLUS
// page (23 four-letter names fill it beside "." and "..") and many pages.
// lockedDir is one uid 1000 may read but not search.
var (
	plusDirs  = map[string]int{"/e0": 0, "/e1": 1, "/e23": 23, "/e24": 24, "/e25": 25, "/e26": 26, "/e27": 27, "/e200": 200}
	plusOrder = []string{"/e0", "/e1", "/e23", "/e24", "/e25", "/e26", "/e27", "/e200", lockedDir}
)

const lockedDir = "/locked"

// plusPath is a name under one of the listed directories, most of them
// seeded, some not.
func plusPath(rng *sim.Rand) string {
	d := plusOrder[rng.Intn(len(plusOrder)-1)]
	return fmt.Sprintf("%s/f%03d", d, rng.Intn(30))
}

// plusStart makes the listed directories through the stack, a hard link
// in a full page and one across directories, then lets every dentry and
// attribute expire, so the first listing of each finds nothing cached.
func plusStart(t *testing.T, e *env, _ uint64) {
	for _, d := range plusOrder {
		if err := e.root.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		n := plusDirs[d]
		if d == lockedDir {
			n = 3
		}
		for i := 0; i < n; i++ {
			if err := e.root.WriteFile(fmt.Sprintf("%s/f%03d", d, i), []byte(d[:1+i%4]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range [][2]string{{"/e25/f000", "/e25/f024x"}, {"/e23/f001", "/e200/l001"}} {
		if err := e.root.Link(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.root.Chmod(lockedDir, 0o744); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Second)
}

// listStat lists dir as cli and stats every entry, rendering what the
// caller saw: each entry's errno, type, mode, size and link count, and
// which earlier entry of the listing names the same inode.
func listStat(cli *vfs.Client, who, dir string) string {
	ents, err := cli.ReadDir(dir)
	var b strings.Builder
	fmt.Fprintf(&b, "list %s as %s: %v", dir, who, errno(err))
	seen := map[vfs.Ino]string{}
	for _, d := range ents {
		attr, err := cli.Lstat(dir + "/" + d.Name)
		fmt.Fprintf(&b, " %s:%v", d.Name, errno(err))
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, ":%d:%o:%d:%d", attr.Type, attr.Mode, attr.Size, attr.Nlink)
		if first, ok := seen[attr.Ino]; ok {
			fmt.Fprintf(&b, "=%s", first)
		} else {
			seen[attr.Ino] = d.Name
		}
	}
	return b.String()
}

// plusStep runs the program's next operation and renders what the caller
// saw. It holds at most one file open for writing, on the first slot.
func plusStep(_ *testing.T, e *env, rng *sim.Rand) string {
	switch k := rng.Intn(16); k {
	case 0, 1, 2, 3:
		return listStat(e.root, "root", plusOrder[rng.Intn(len(plusOrder))])
	case 4:
		return listStat(e.user, "uid 1000", plusOrder[rng.Intn(len(plusOrder))])
	case 5:
		p := plusPath(rng)
		return fmt.Sprintf("create %s: %v", p, errno(e.root.WriteFile(p, make([]byte, rng.Intn(9000)), 0o644)))
	case 6:
		p := plusPath(rng)
		return fmt.Sprintf("unlink %s: %v", p, errno(e.root.Remove(p)))
	case 7:
		from, to := plusPath(rng), plusPath(rng)
		return fmt.Sprintf("rename %s %s: %v", from, to, errno(e.root.Rename(from, to)))
	case 8:
		from, to := plusPath(rng), plusPath(rng)
		return fmt.Sprintf("link %s %s: %v", from, to, errno(e.root.Link(from, to)))
	case 9:
		p, mode := plusPath(rng), []vfs.Mode{0o600, 0o644, 0o755}[rng.Intn(3)]
		return fmt.Sprintf("chmod %s %o: %v", p, mode, errno(e.root.Chmod(p, mode)))
	case 10:
		p, size := plusPath(rng), int64(rng.Intn(12000))
		return fmt.Sprintf("truncate %s %d: %v", p, size, errno(e.root.Truncate(p, size)))
	case 11, 12:
		// A write the kernel-side cache holds back (writeback) while the
		// program lists and stats around it, until the file is closed.
		if e.files[0] == nil {
			p := plusPath(rng)
			f, err := e.root.Open(p, vfs.ORdwr, 0)
			if err != nil {
				return fmt.Sprintf("open %s: %v", p, errno(err))
			}
			e.files[0] = &f
		}
		off, n := int64(rng.Intn(10000)), 1+rng.Intn(5000)
		got, err := e.files[0].WriteAt(make([]byte, n), off)
		return fmt.Sprintf("write %d at %d: %d %v", n, off, got, errno(err))
	case 13:
		if e.files[0] == nil {
			return "nothing open"
		}
		err := e.files[0].Close()
		e.files[0] = nil
		return fmt.Sprintf("close: %v", errno(err))
	case 14:
		e.clock.Advance(2 * time.Second)
		return "expire"
	default:
		p, q := plusPath(rng), plusPath(rng)
		a, errA := e.root.Lstat(p)
		b, errB := e.root.Lstat(q)
		return fmt.Sprintf("stat %s %s: %v %v same %v", p, q, errno(errA), errno(errB), errA == nil && errB == nil && a.Ino == b.Ino)
	}
}
