package stack

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// dirEnv is one side of TestNoOpendirDifferential: a CntrFS stack or, as
// the reference, the native stack, and the directory handles the program
// holds open on it with the last cookie each has read.
type dirEnv struct {
	top    vfs.FS
	clock  *sim.Clock
	host   *memfs.FS
	sync   func() error
	close  func()
	root   *vfs.Client
	user   *vfs.Client
	slots  [3]vfs.Handle
	cookie [3]int64
}

func newDirEnv(mount *fuse.MountOptions) *dirEnv {
	e := &dirEnv{}
	if mount == nil {
		n := NewNative(Config{})
		e.top, e.clock, e.host, e.close = n.Top, n.Clock, n.Mem, func() {}
		e.sync = n.Cache.SyncFS
	} else {
		c := NewCntr(Config{Mount: *mount})
		e.top, e.clock, e.host, e.close = c.Top, c.Clock, c.Host, c.Close
		e.sync = func() error {
			if err := c.Kernel.SyncFS(); err != nil {
				return err
			}
			return c.HostPC.SyncFS()
		}
	}
	e.root, e.user = vfs.NewClient(e.top, vfs.Root()), vfs.NewClient(e.top, vfs.User(1000, 1000))
	return e
}

// seed makes the tree every program starts from, through the stack.
func (e *dirEnv) seed(t *testing.T) {
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

func errno(err error) vfs.Errno { return vfs.ToErrno(err) }

// step runs the program's next operation and renders what the caller saw.
func (e *dirEnv) step(rng *sim.Rand) string {
	op := vfs.RootOp()
	slot := rng.Intn(len(e.slots))
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
		out := e.closeSlot(op, slot)
		attr, err := e.root.Lstat(p)
		if err != nil {
			return fmt.Sprintf("%sopendir %s -> %d: %v", out, p, slot, errno(err))
		}
		h, err := e.top.Opendir(op, attr.Ino)
		if err == nil {
			e.slots[slot], e.cookie[slot] = h, 0
		}
		return fmt.Sprintf("%sopendir %s -> %d: %v", out, p, slot, errno(err))
	case 12, 13, 14:
		// Read a slot on from where it stopped, from the start, or from
		// one entry back: a partial listing with changes in between.
		if e.slots[slot] == 0 {
			return "no handle"
		}
		off := []int64{e.cookie[slot], 0, max(e.cookie[slot]-1, 0)}[k-12]
		ents, err := e.top.Readdir(op, e.slots[slot], off)
		if n := len(ents); err == nil && n > 0 {
			// Take a batch of one or two, as a small getdents buffer would.
			ents = ents[:min(n, 1+rng.Intn(2))]
			e.cookie[slot] = ents[len(ents)-1].Off
		}
		return fmt.Sprintf("readdir %d @%d: %v%s", slot, off, errno(err), render(ents))
	default:
		return e.closeSlot(op, slot)
	}
}

func (e *dirEnv) closeSlot(op *vfs.Op, slot int) string {
	h := e.slots[slot]
	if h == 0 {
		return ""
	}
	e.slots[slot] = 0
	return fmt.Sprintf("closedir %d: %v; ", slot, errno(e.top.Releasedir(op, h)))
}

// finish closes every slot, syncs the caches and renders the digest of
// the tree the host filesystem itself ends up holding.
func (e *dirEnv) finish(t *testing.T) string {
	defer e.close()
	op := vfs.RootOp()
	out := ""
	for slot := range e.slots {
		out += e.closeSlot(op, slot)
	}
	if err := e.sync(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	host := vfs.NewClient(e.host, vfs.Root())
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := host.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, d := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + d.Name
			attr, err := host.Lstat(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d %o %d %d;", p, attr.Type, attr.Mode, attr.Nlink, attr.Size)
			switch attr.Type {
			case vfs.TypeDirectory:
				walk(p)
			case vfs.TypeSymlink:
				target, err := host.Readlink(p)
				fmt.Fprintf(h, "-> %s %v;", target, err)
			default:
				data, err := host.ReadFile(p)
				fmt.Fprintf(h, "%q %v;", data, err)
			}
		}
	}
	walk("/")
	return fmt.Sprintf("%shost tree %x", out, h.Sum(nil))
}

// TestNoOpendirDifferential is the oracle for MountOptions.NoOpendir: the
// same seeded program — mkdir, create, unlink, rmdir, rename of files and
// directories across directories and over existing entries, link and
// symlink, interleaved with full listings as root and as uid 1000, chmods
// that make a listed directory 0700, and partial listings of held
// directory handles with entry changes between their Readdir calls — runs
// on the default stack, on the default stack with the rule off, without a
// dentry cache (where the rule is inert), without an attribute cache
// (where it checks every listing with a GETATTR) and on the native stack. Listing without a message may
// change what a listing costs, never what it returns: every errno and
// every listing, by name, type and cookie, must be equal, and so must the
// host tree after a sync. A handle on a directory removed while it is open
// reads ENOENT everywhere; an opendir of a file is ENOTDIR.
func TestNoOpendirDifferential(t *testing.T) {
	seeds := uint64(16)
	if testing.Short() || raceBuild() {
		seeds = 4
	}
	on, off, noEntries, noAttrs := fuse.DefaultMountOptions(), fuse.DefaultMountOptions(), fuse.DefaultMountOptions(), fuse.DefaultMountOptions()
	off.NoOpendir = false
	noEntries.EntryTimeout = 0
	noAttrs.AttrTimeout = 0
	sides := []struct {
		name  string
		mount *fuse.MountOptions
	}{{"NoOpendir", &on}, {"NoOpendir off", &off}, {"EntryTimeout 0", &noEntries}, {"AttrTimeout 0", &noAttrs}, {"native", nil}}
	const ops = 120
	for seed := uint64(1); seed <= seeds; seed++ {
		envs, rngs := make([]*dirEnv, len(sides)), make([]*sim.Rand, len(sides))
		for k, s := range sides {
			envs[k], rngs[k] = newDirEnv(s.mount), sim.NewRand(seed)
			envs[k].seed(t)
		}
		for i := 0; i <= ops; i++ {
			step := func(k int) string {
				if i == ops {
					return envs[k].finish(t)
				}
				return envs[k].step(rngs[k])
			}
			a := step(0)
			for k := 1; k < len(sides); k++ {
				if b := step(k); a != b {
					t.Fatalf("seed %d op %d:\n %s: %s\n %s: %s", seed, i, sides[0].name, a, sides[k].name, b)
				}
			}
		}
	}
}

// TestNoOpendirRemovedWhileOpen is the differential's fixed rows: a
// directory removed while a handle is open on it — by rmdir, and by a
// rename over it — reads ENOENT through the handle on every stack, the
// listing root made does not let uid 1000 open a 0700 directory, and an
// opendir of a file is ENOTDIR.
func TestNoOpendirRemovedWhileOpen(t *testing.T) {
	on, off := fuse.DefaultMountOptions(), fuse.DefaultMountOptions()
	off.NoOpendir = false
	sides := []struct {
		name  string
		mount *fuse.MountOptions
	}{{"NoOpendir", &on}, {"NoOpendir off", &off}, {"native", nil}}
	for _, s := range sides {
		t.Run(s.name, func(t *testing.T) {
			e := newDirEnv(s.mount)
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
			mount := fuse.DefaultMountOptions()
			mount.NoOpendir = rule
			c := NewCntr(Config{Mount: mount})
			defer c.Close()
			cli := vfs.NewClient(c.Top, vfs.Root())
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
			if err := vfs.NewClient(c.Host, vfs.Root()).WriteFile("/d/behind", nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, seen := names(), strings.Contains(names(), "behind"); seen == rule {
				t.Errorf("at once: listing %q; the host's new file shown: %v, want %v", got, seen, !rule)
			}
			c.Clock.Advance(mount.AttrTimeout + time.Nanosecond)
			if got := names(); !strings.Contains(got, "behind") {
				t.Errorf("after AttrTimeout: listing %q lacks the host's new file", got)
			}
		})
	}
}
