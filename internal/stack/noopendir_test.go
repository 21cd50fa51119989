package stack

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// dirStart makes the tree every program starts from, through the stack.
func dirStart(t *testing.T, e *env, _ uint64) {
	for _, d := range []string{"/a", "/a/c", "/b"} {
		if err := e.root.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/f", "/a/f", "/a/c/g", "/b/g"} {
		if err := e.root.WriteFile(f, []byte(f), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirParents and dirNames make every path the program touches: a name
// under one of a few directories, which the program itself makes, removes
// and moves about.
var (
	dirParents = []string{"", "/a", "/b", "/a/c"}
	dirNames   = []string{"a", "b", "c", "f", "g"}
)

func dirPath(rng *sim.Rand) string {
	return dirParents[rng.Intn(len(dirParents))] + "/" + dirNames[rng.Intn(len(dirNames))]
}

func dirParent(rng *sim.Rand) string {
	if p := dirParents[rng.Intn(len(dirParents))]; p != "" {
		return p
	}
	return "/"
}

// render is a listing by name and type, without the inode numbers, which
// differ from stack to stack.
func render(ents []vfs.Dirent) string {
	var b strings.Builder
	for _, d := range ents {
		fmt.Fprintf(&b, " %s:%d@%d", d.Name, d.Type, d.Off)
	}
	return b.String()
}

// noOpendirStep runs the program's next operation, on one of three
// directory handle slots, and renders what the caller saw.
func noOpendirStep(_ *testing.T, e *env, rng *sim.Rand) string {
	op := vfs.RootOp()
	slot := rng.Intn(len(e.dirs))
	switch k := rng.Intn(16); k {
	case 0:
		p := dirPath(rng)
		return fmt.Sprintf("mkdir %s: %v", p, errno(e.root.Mkdir(p, 0o755)))
	case 1:
		p := dirPath(rng)
		return fmt.Sprintf("create %s: %v", p, errno(e.root.WriteFile(p, []byte(p), 0o644)))
	case 2, 3:
		p := dirPath(rng)
		return fmt.Sprintf("remove %s: %v", p, errno(e.root.Remove(p)))
	case 4:
		from, to := dirPath(rng), dirPath(rng)
		return fmt.Sprintf("rename %s %s: %v", from, to, errno(e.root.Rename(from, to)))
	case 5:
		from, to := dirPath(rng), dirPath(rng)
		return fmt.Sprintf("link %s %s: %v", from, to, errno(e.root.Link(from, to)))
	case 6:
		p := dirPath(rng)
		return fmt.Sprintf("symlink %s: %v", p, errno(e.root.Symlink("f", p)))
	case 7:
		p := dirParents[1+rng.Intn(len(dirParents)-1)]
		mode := []vfs.Mode{0o700, 0o755}[rng.Intn(2)]
		return fmt.Sprintf("chmod %s %o: %v", p, mode, errno(e.root.Chmod(p, mode)))
	case 8, 9:
		cli, who := e.root, "root"
		if k == 9 {
			cli, who = e.user, "uid 1000"
		}
		p := dirParent(rng)
		ents, err := cli.ReadDir(p)
		return fmt.Sprintf("list %s as %s: %v%s", p, who, errno(err), render(ents))
	case 10, 11:
		// Open a directory (or whatever is at the path) on a slot; a slot
		// in use is closed first.
		p := dirParent(rng)
		if k == 11 {
			p = dirPath(rng)
		}
		out := e.closedir(slot)
		attr, err := e.root.Lstat(p)
		if err != nil {
			return fmt.Sprintf("%sopendir %s -> %d: %v", out, p, slot, errno(err))
		}
		h, err := e.top.Opendir(op, attr.Ino)
		if err == nil {
			e.dirs[slot], e.cookie[slot] = h, 0
		}
		return fmt.Sprintf("%sopendir %s -> %d: %v", out, p, slot, errno(err))
	case 12, 13, 14:
		// Read a slot on from where it stopped, from the start, or from
		// one entry back: a partial listing with changes in between.
		if e.dirs[slot] == 0 {
			return "no handle"
		}
		off := []int64{e.cookie[slot], 0, max(e.cookie[slot]-1, 0)}[k-12]
		ents, err := e.top.Readdir(op, e.dirs[slot], off)
		if n := len(ents); err == nil && n > 0 {
			// Take a batch of one or two, as a small getdents buffer would.
			ents = ents[:min(n, 1+rng.Intn(2))]
			e.cookie[slot] = ents[len(ents)-1].Off
		}
		return fmt.Sprintf("readdir %d @%d: %v%s", slot, off, errno(err), render(ents))
	default:
		return e.closedir(slot)
	}
}

// TestNoOpendirRemovedWhileOpen is the differential's fixed rows: a
// directory removed while a handle is open on it — by rmdir, and by a
// rename over it — reads ENOENT through the handle on every stack, the
// listing root made does not let uid 1000 open a 0700 directory, and an
// opendir of a file is ENOTDIR.
func TestNoOpendirRemovedWhileOpen(t *testing.T) {
	sides := []side{
		{name: "NoOpendir", cfg: Config{Mount: fuse.DefaultMountOptions()}},
		{name: "NoOpendir off", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.NoOpendir = false })}},
		{name: "native", ref: nativeStack},
	}
	for _, s := range sides {
		t.Run(s.name, func(t *testing.T) {
			e := newEnv(s)
			defer e.close()
			op := vfs.RootOp()
			for _, d := range []string{"/d", "/e", "/p"} {
				if err := e.root.Mkdir(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.root.WriteFile("/p/x", nil, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, how := range []string{"rmdir", "rename over"} {
				if err := e.root.Mkdir("/r", 0o755); err != nil {
					t.Fatal(err)
				}
				attr, err := e.root.Stat("/r")
				if err != nil {
					t.Fatal(err)
				}
				h, err := e.top.Opendir(op, attr.Ino)
				if err != nil {
					t.Fatal(err)
				}
				if ents, err := e.top.Readdir(op, h, 0); err != nil || len(ents) != 2 {
					t.Fatalf("%s: listing the empty directory: %v, %v", how, render(ents), err)
				}
				if how == "rmdir" {
					err = e.root.Remove("/r")
				} else {
					err = e.root.Rename("/e", "/r")
				}
				if err != nil {
					t.Fatal(err)
				}
				if ents, err := e.top.Readdir(op, h, 0); errno(err) != vfs.ENOENT {
					t.Errorf("%s: readdir through the open handle: %v, %v; want ENOENT", how, render(ents), err)
				}
				if err := e.top.Releasedir(op, h); err != nil {
					t.Fatal(err)
				}
				e.root.Remove("/r")
			}
			if _, err := e.root.ReadDir("/p"); err != nil {
				t.Fatal(err)
			}
			if err := e.root.Chmod("/p", 0o700); err != nil {
				t.Fatal(err)
			}
			if ents, err := e.user.ReadDir("/p"); errno(err) != vfs.EACCES {
				t.Errorf("uid 1000 listing a 0700 directory root has listed: %v, %v; want EACCES", ents, err)
			}
			file, err := e.root.Stat("/p/x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.top.Opendir(op, file.Ino); errno(err) != vfs.ENOTDIR {
				t.Errorf("opendir of a file: %v, want ENOTDIR", err)
			}
		})
	}
}

// TestNoOpendirBehindTheMountsBack: a listing the kernel keeps is checked
// against the directory's cached attributes, so a file created directly
// on the host is missing from listings on the mount until AttrTimeout has
// passed, and there after — the window MountOptions.NoOpendir documents.
// With the rule off every listing asks the server and sees it at once.
func TestNoOpendirBehindTheMountsBack(t *testing.T) {
	for _, rule := range []bool{true, false} {
		t.Run(fmt.Sprintf("NoOpendir=%v", rule), func(t *testing.T) {
			mount := mountWith(func(m *fuse.MountOptions) { m.NoOpendir = rule })
			e := newEnv(side{cfg: Config{Mount: mount}})
			defer e.close()
			cli := e.root
			if err := cli.MkdirAll("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			names := func() string {
				ents, err := cli.ReadDir("/d")
				if err != nil {
					t.Fatal(err)
				}
				return render(ents)
			}
			names() // the listing the kernel keeps
			if err := vfs.NewClient(e.base, vfs.Root()).WriteFile("/d/behind", nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, seen := names(), strings.Contains(names(), "behind"); seen == rule {
				t.Errorf("at once: listing %q; the host's new file shown: %v, want %v", got, seen, !rule)
			}
			e.clock.Charge(sim.LayerWorkload, mount.AttrTimeout+time.Nanosecond)
			if got := names(); !strings.Contains(got, "behind") {
				t.Errorf("after AttrTimeout: listing %q lacks the host's new file", got)
			}
		})
	}
}
