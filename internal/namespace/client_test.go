package namespace

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// sessionNS builds a namespace shaped like an attached session's (see
// cntr.Attach): a tools filesystem mounted on a temporary mount point of
// the host root, the application's tree re-exposed beneath it at a path no
// directory backs, a read-only bind of the same tree, and a client
// chrooted onto the temporary mount point. Both sides of the jail hold an
// /outside file so a test can tell which one a path reached.
func sessionNS(t *testing.T) (ns *MountNS, jail *vfs.Client) {
	t.Helper()
	seed := func(files map[string]string) vfs.FS {
		fs := memfs.New(memfs.Options{})
		c := vfs.NewClient(fs, vfs.Root())
		for p, data := range files {
			if err := c.MkdirAll(p[:strings.LastIndex(p, "/")], 0o755); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteFile(p, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	hostFS := seed(map[string]string{"/outside": "secret", "/tmp/cntr/under": "shadowed"})
	tools := seed(map[string]string{"/outside": "inside", "/bin/gdb": "ELF", "/etc/gdbinit": "set"})
	app := seed(map[string]string{"/app/data": "d", "/priv/f": "p"})
	if err := vfs.NewClient(app, vfs.Root()).Chmod("/priv", 0o700); err != nil {
		t.Fatal(err)
	}
	ns = NewMountNS(hostFS)
	ns.Mount("/tmp/cntr", tools, vfs.RootIno, false)
	ns.Mount("/tmp/cntr/var/lib/cntr", app, vfs.RootIno, false)
	ns.Mount("/tmp/cntr/ro", app, vfs.RootIno, true)
	jail, err := NewClient(ns, vfs.Root()).Chroot("/tmp/cntr")
	if err != nil {
		t.Fatal(err)
	}
	return ns, jail
}

// TestChrootContainment: no spelling of a path gets a chrooted client out
// of its jail. Every row must land on the jail's own /outside.
func TestChrootContainment(t *testing.T) {
	_, jail := sessionNS(t)
	for _, l := range []struct{ target, link string }{
		{"/outside", "/abs"},                            // absolute target restarts at the jail root
		{"../outside", "/rel"},                          // ".." at the jail root stays put
		{"../../../outside", "/etc/deep"},               // ... however many there are
		{"/abs", "/chain"},                              // symlink to a symlink
		{"../../../../outside", "/var/lib/cntr/app/up"}, // made on a nested mount
	} {
		if err := jail.Symlink(l.target, l.link); err != nil {
			t.Fatalf("symlink %s -> %s: %v", l.link, l.target, err)
		}
	}
	for _, path := range []string{
		"/outside",
		"/../outside",
		"/../../outside",
		"etc/../../outside",
		"/bin/../../outside",
		"/var/lib/cntr/../../../../outside",
		"/var/lib/cntr/app/../../../../../outside",
		"/abs", "/rel", "/etc/deep", "/chain", "/var/lib/cntr/app/up",
	} {
		got, err := jail.ReadFile(path)
		if err != nil || string(got) != "inside" {
			t.Errorf("ReadFile(%q) = %q, %v; want the jail's own file", path, got, err)
		}
	}
	if attr, err := jail.Stat("/.."); err != nil || attr.Type != vfs.TypeDirectory {
		t.Fatalf("stat /..: %+v %v", attr, err)
	}
	if _, err := jail.Stat("/tmp/cntr"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("host path visible in the jail: %v", err)
	}
	// A jail inside the jail is confined to the inner root.
	inner, err := jail.Chroot("/var/lib/cntr/app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Stat("/../priv"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("nested chroot escaped through ..: %v", err)
	}
	if got, err := inner.ReadFile("/../../data"); err != nil || string(got) != "d" {
		t.Fatalf("nested chroot read: %q %v", got, err)
	}
}

// vfsChecked models a filesystem that leaves permission checks to the
// VFS layer above it, as a FUSE mount with default_permissions does: it
// serves every lookup with root's credentials.
type vfsChecked struct{ vfs.FS }

func (f vfsChecked) Lookup(op *vfs.Op, dir vfs.Ino, name string) (vfs.Attr, error) {
	return f.FS.Lookup(op.WithCred(vfs.Root()), dir, name)
}

// TestSearchPermissionAcrossMounts: the walker itself checks search
// permission on the directories of a mounted filesystem, whether or not
// the filesystem does.
func TestSearchPermissionAcrossMounts(t *testing.T) {
	ns, jail := sessionNS(t)
	app, _ := ns.MountAt("/tmp/cntr/ro")
	ns.Mount("/tmp/cntr/mnt", vfsChecked{app.FS}, vfs.RootIno, false)
	user := *jail
	user.Op = vfs.NewOp(nil, vfs.User(1000, 1000))
	for _, dir := range []string{"/var/lib/cntr", "/mnt"} {
		if _, err := user.Stat(dir + "/priv/f"); vfs.ToErrno(err) != vfs.EACCES {
			t.Errorf("uid 1000 through the 0700 root-owned %s/priv: %v, want EACCES", dir, err)
		}
		if _, err := user.Stat(dir + "/priv"); err != nil {
			t.Errorf("stat of %s/priv itself needs no search permission on it: %v", dir, err)
		}
		if _, err := user.ReadFile(dir + "/app/data"); err != nil {
			t.Errorf("world-readable %s/app/data: %v", dir, err)
		}
		if _, err := jail.Stat(dir + "/priv/f"); err != nil {
			t.Errorf("root through %s/priv: %v", dir, err)
		}
	}
}

// cancelOnLookup cancels a context when name is looked up.
type cancelOnLookup struct {
	vfs.FS
	name   string
	cancel context.CancelFunc
}

func (c *cancelOnLookup) Lookup(op *vfs.Op, dir vfs.Ino, name string) (vfs.Attr, error) {
	if name == c.name {
		c.cancel()
	}
	return c.FS.Lookup(op, dir, name)
}

// TestCanceledOpAbortsWalkAcrossMount: an Op canceled while the walk is
// under way gets EINTR at the next mount boundary instead of an answer.
func TestCanceledOpAbortsWalkAcrossMount(t *testing.T) {
	rootFS := memfs.New(memfs.Options{})
	vfs.NewClient(rootFS, vfs.Root()).MkdirAll("/a", 0o755)
	other := memfs.New(memfs.Options{})
	vfs.NewClient(other, vfs.Root()).WriteFile("/f", []byte("x"), 0o644)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ns := NewMountNS(&cancelOnLookup{FS: rootFS, name: "a", cancel: cancel})
	ns.Mount("/a/m", other, vfs.RootIno, false)
	c := NewClient(ns, vfs.Root())
	c.Op = vfs.NewOp(ctx, vfs.Root())
	if _, err := c.Stat("/a/m/f"); vfs.ToErrno(err) != vfs.EINTR {
		t.Fatalf("walk canceled before the mount boundary: %v, want EINTR", err)
	}
	if _, err := NewClient(ns, vfs.Root()).Stat("/a/m/f"); err != nil {
		t.Fatalf("uncanceled client: %v", err)
	}
}

// TestMountSemanticsInSession carries the mount-table cases the
// namespace client used to own — EROFS on a read-only mount, EBUSY on a
// mount point, EXDEV across mounts, mount points whose parents no
// directory backs, ".." out of a mount — onto the one client, inside a
// session-shaped chroot.
func TestMountSemanticsInSession(t *testing.T) {
	read := func(path string) func(*vfs.Client) (string, error) {
		return func(c *vfs.Client) (string, error) {
			b, err := c.ReadFile(path)
			return string(b), err
		}
	}
	do := func(f func(*vfs.Client) error) func(*vfs.Client) (string, error) {
		return func(c *vfs.Client) (string, error) { return "", f(c) }
	}
	for _, tc := range []struct {
		name string
		run  func(*vfs.Client) (string, error)
		want string
		err  vfs.Errno
	}{
		{"read through ro mount", read("/ro/app/data"), "d", 0},
		{"create on ro mount", do(func(c *vfs.Client) error { return c.WriteFile("/ro/new", nil, 0o644) }), "", vfs.EROFS},
		{"open for write on ro mount", do(func(c *vfs.Client) error {
			_, err := c.Open("/ro/app/data", vfs.OWronly, 0)
			return err
		}), "", vfs.EROFS},
		{"mkdir on ro mount", do(func(c *vfs.Client) error { return c.Mkdir("/ro/d", 0o755) }), "", vfs.EROFS},
		{"mkdir of existing dir on ro mount", do(func(c *vfs.Client) error { return c.Mkdir("/ro/app", 0o755) }), "", vfs.EEXIST},
		{"remove on ro mount", do(func(c *vfs.Client) error { return c.Remove("/ro/app/data") }), "", vfs.EROFS},
		{"symlink on ro mount", do(func(c *vfs.Client) error { return c.Symlink("x", "/ro/l") }), "", vfs.EROFS},
		{"rename on ro mount", do(func(c *vfs.Client) error { return c.Rename("/ro/app/data", "/ro/app/d2") }), "", vfs.EROFS},
		{"link on ro mount", do(func(c *vfs.Client) error { return c.Link("/ro/app/data", "/ro/app/l") }), "", vfs.EROFS},
		{"chmod on ro mount", do(func(c *vfs.Client) error { return c.Chmod("/ro/app/data", 0o600) }), "", vfs.EROFS},
		{"truncate on ro mount", do(func(c *vfs.Client) error { return c.Truncate("/ro/app/data", 0) }), "", vfs.EROFS},
		{"same tree writable through rw mount", do(func(c *vfs.Client) error { return c.WriteFile("/var/lib/cntr/app/w", nil, 0o644) }), "", 0},

		{"remove mount point", do(func(c *vfs.Client) error { return c.Remove("/var/lib/cntr") }), "", vfs.EBUSY},
		{"remove-all mount point", do(func(c *vfs.Client) error { return c.RemoveAll("/var/lib/cntr") }), "", vfs.EBUSY},
		{"rename mount point", do(func(c *vfs.Client) error { return c.Rename("/ro", "/rw") }), "", vfs.EBUSY},
		{"rename onto mount point", do(func(c *vfs.Client) error { return c.Rename("/etc", "/ro") }), "", vfs.EBUSY},

		{"rename across mounts", do(func(c *vfs.Client) error { return c.Rename("/bin/gdb", "/var/lib/cntr/gdb") }), "", vfs.EXDEV},
		{"link across mounts", do(func(c *vfs.Client) error { return c.Link("/bin/gdb", "/var/lib/cntr/gdb") }), "", vfs.EXDEV},
		{"rename within a mount", do(func(c *vfs.Client) error { return c.Rename("/var/lib/cntr/app/data", "/var/lib/cntr/data") }), "", 0},

		{"mount point with no underlying dirs", read("/var/lib/cntr/app/data"), "d", 0},
		{"readdir of such a mount point", do(func(c *vfs.Client) error {
			_, err := c.ReadDir("/var/lib/cntr")
			return err
		}), "", 0},
		{"its unbacked parent is not an object", do(func(c *vfs.Client) error {
			_, err := c.Stat("/var/lib")
			return err
		}), "", vfs.ENOENT},
		{"nothing can be created in it", do(func(c *vfs.Client) error { return c.WriteFile("/var/lib/x", nil, 0o644) }), "", vfs.ENOENT},
		{"nor walked through elsewhere", read("/var/nope/cntr/app/data"), "", vfs.ENOENT},

		{"dotdot out of a mount", read("/var/lib/cntr/app/../../../../etc/gdbinit"), "set", 0},
		{"dotdot onto a mount root", read("/var/lib/cntr/app/../app/data"), "d", 0},
		{"dotdot through unbacked dirs", read("/var/lib/../lib/cntr/app/data"), "d", 0},
		{"mount shadows what lies under it", read("/under"), "", vfs.ENOENT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, jail := sessionNS(t)
			got, err := tc.run(jail)
			if vfs.ToErrno(err) != tc.err || (err == nil) != (tc.err == 0) || got != tc.want {
				t.Fatalf("got %q, %v; want %q, errno %v", got, err, tc.want, tc.err)
			}
		})
	}
}

// TestMountTableCostsNoOps runs one script through a plain vfs.Client and
// through a client over a namespace holding only "/", and requires the
// same result and errno on every step, the same operations in the same
// order at the filesystem, and so the same vfs.Stats: on one filesystem
// the mount-aware route is the plain route.
func TestMountTableCostsNoOps(t *testing.T) {
	type run struct {
		steps []string
		ops   []string
		stats vfs.OpStats
	}
	script := func(mounted bool) run {
		var r run
		stats := vfs.NewStats()
		rec := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
			err := next()
			r.ops = append(r.ops, fmt.Sprintf("%v %d %q -> %v", info.Kind, info.Ino, info.Name, err))
			return err
		})
		fs := vfs.Chain(memfs.New(memfs.Options{}), stats, rec)
		c := vfs.NewClient(fs, vfs.User(1000, 1000))
		if mounted {
			c = NewClient(NewMountNS(fs), vfs.User(1000, 1000))
		}
		// The root is root-owned 0755; give the unprivileged script a
		// home it owns, and a directory it may not search.
		admin := vfs.NewClient(fs, vfs.Root())
		admin.MkdirAll("/home", 0o755)
		admin.Chown("/home", 1000, 1000)
		admin.MkdirAll("/priv/in", 0o755)
		admin.Chmod("/priv", 0o700)
		stats.Reset()
		r.ops = nil

		step := func(what string, val any, err error) {
			r.steps = append(r.steps, fmt.Sprintf("%s = %v, %v", what, val, err))
		}
		attrOf := func(a vfs.Attr, err error) (string, error) {
			return fmt.Sprintf("%v ino=%d mode=%o size=%d nlink=%d", a.Type, a.Ino, a.Mode, a.Size, a.Nlink), err
		}
		names := func(ents []vfs.Dirent, err error) ([]string, error) {
			var out []string
			for _, e := range ents {
				out = append(out, e.Name)
			}
			return out, err
		}
		stat := func(p string) { v, err := attrOf(c.Stat(p)); step("stat "+p, v, err) }
		lstat := func(p string) { v, err := attrOf(c.Lstat(p)); step("lstat "+p, v, err) }
		read := func(p string) { b, err := c.ReadFile(p); step("read "+p, string(b), err) }
		ls := func(p string) { v, err := names(c.ReadDir(p)); step("ls "+p, v, err) }

		step("mkdir", nil, c.Mkdir("/home/d", 0o755))
		step("mkdir again", nil, c.Mkdir("/home/d", 0o755))
		step("mkdir -p", nil, c.MkdirAll("/home/d/e/f", 0o755))
		step("mkdir under missing", nil, c.Mkdir("/home/nope/x", 0o755))
		step("create", nil, c.WriteFile("/home/d/file", []byte("hello"), 0o644))
		stat("/home/d/file")
		stat("/home/d/missing")
		stat("/home/d/file/notdir")
		stat("/home/" + strings.Repeat("n", vfs.MaxNameLen+1))
		stat("/priv/in")
		f, err := c.Open("/home/d/file", vfs.ORdwr, 0)
		step("open", nil, err)
		if err == nil {
			buf := make([]byte, 3)
			n, rerr := f.Read(buf)
			step("read 3", string(buf[:n]), rerr)
			n, werr := f.Write([]byte("LO!"))
			step("write", n, werr)
			_, serr := f.Seek(0, io.SeekStart)
			step("seek", nil, serr)
			step("fsync", nil, f.Sync())
			step("ftruncate", nil, f.Truncate(7))
			step("close", nil, f.Close())
			step("close again", nil, f.Close())
		}
		read("/home/d/file")
		_, err = c.Open("/home/d/file", vfs.OWronly|vfs.OCreat|vfs.OExcl, 0o644)
		step("open excl", nil, err)
		_, err = c.Open("/home/d", vfs.OWronly, 0)
		step("open dir for write", nil, err)

		step("symlink rel", nil, c.Symlink("file", "/home/d/rel"))
		step("symlink abs", nil, c.Symlink("/home/d/rel", "/home/abs"))
		step("symlink up", nil, c.Symlink("../e/../file", "/home/d/e/up"))
		step("symlink dir", nil, c.Symlink("d/e", "/home/dirlink"))
		step("symlink loop", nil, c.Symlink("loop", "/home/loop"))
		step("symlink dangling", nil, c.Symlink("/home/nowhere", "/home/dangling"))
		step("symlink exists", nil, c.Symlink("x", "/home/abs"))
		read("/home/d/rel")
		read("/home/abs")
		read("/home/d/e/up")
		read("/home/dirlink/up")
		read("/home/dirlink/../file")
		read("/home/loop")
		read("/home/dangling")
		lstat("/home/abs")
		target, err := c.Readlink("/home/abs")
		step("readlink", target, err)
		_, err = c.Readlink("/home/d/file")
		step("readlink of file", nil, err)
		_, err = c.Open("/home/abs", vfs.ORdonly|vfs.ONofollow, 0)
		step("open nofollow", nil, err)
		step("create through dangling", nil, c.WriteFile("/home/dangling", []byte("x"), 0o644))

		read("/home/d/../d/./file")
		read("/../home/d/file")
		read("/home/../../../home/d/e/../file")
		stat("/..")
		stat("/")

		step("link", nil, c.Link("/home/d/file", "/home/d/hard"))
		step("link exists", nil, c.Link("/home/d/file", "/home/d/hard"))
		step("link missing", nil, c.Link("/home/d/missing", "/home/d/hard2"))
		stat("/home/d/hard")
		step("rename", nil, c.Rename("/home/d/hard", "/home/d/e/moved"))
		step("rename over", nil, c.Rename("/home/d/e/moved", "/home/d/file"))
		step("rename missing", nil, c.Rename("/home/d/missing", "/home/d/x"))
		step("rename into missing dir", nil, c.Rename("/home/d/file", "/home/nope/x"))
		step("truncate", nil, c.Truncate("/home/d/file", 2))
		step("chmod", nil, c.Chmod("/home/d/file", 0o600))
		step("chmod not owner", nil, c.Chmod("/priv", 0o777))
		read("/home/nowhere")
		read("/home/d/file")
		ls("/home/d")
		ls("/home/d/e")
		ls("/home/d/file")
		ls("/priv")
		var tree []string
		err = c.WalkTree("/home", func(p string, a vfs.Attr) error {
			tree = append(tree, p)
			return nil
		})
		step("walk", tree, err)

		step("remove file", nil, c.Remove("/home/d/rel"))
		step("remove missing", nil, c.Remove("/home/d/rel"))
		step("remove non-empty", nil, c.Remove("/home/d"))
		step("remove root", nil, c.Remove("/"))
		step("remove-all", nil, c.RemoveAll("/home/d"))
		step("remove-all missing", nil, c.RemoveAll("/home/d"))
		ls("/home")

		r.stats = stats.Snapshot()
		return r
	}
	plain, mounted := script(false), script(true)
	if len(plain.steps) < 60 || plain.stats.Lookups == 0 {
		t.Fatalf("script did not run: %d steps, %+v", len(plain.steps), plain.stats)
	}
	for i := range plain.steps {
		if plain.steps[i] != mounted.steps[i] {
			t.Errorf("step %d differs:\n plain:   %s\n mounted: %s", i, plain.steps[i], mounted.steps[i])
		}
	}
	if plain.stats != mounted.stats {
		t.Errorf("stats differ:\n plain:   %+v\n mounted: %+v", plain.stats, mounted.stats)
	}
	if !reflect.DeepEqual(plain.ops, mounted.ops) {
		for i := 0; i < len(plain.ops) && i < len(mounted.ops); i++ {
			if plain.ops[i] != mounted.ops[i] {
				t.Fatalf("op stream diverges at %d:\n plain:   %s\n mounted: %s", i, plain.ops[i], mounted.ops[i])
			}
		}
		t.Fatalf("op stream lengths differ: %d vs %d", len(plain.ops), len(mounted.ops))
	}
}
