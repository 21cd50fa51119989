package vfs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/chain_observations.golden from this run")

const chainGolden = "chain_observations.golden"

// obsLog is what the chain differential compares: every OpInfo an
// interceptor was shown, before and after next(), at every depth, and
// what every call returned to its caller.
type obsLog struct {
	buf bytes.Buffer
	// ops numbers request ids by first appearance: ids come from a
	// process-wide counter, so only their pattern (one per call, the same
	// at every depth) is comparable between runs.
	ops map[uint64]int
}

func (l *obsLog) printf(format string, args ...any) { fmt.Fprintf(&l.buf, format+"\n", args...) }

func (l *obsLog) op(op *vfs.Op) string {
	switch {
	case op == nil:
		return "nil"
	case op.ID == ^uint64(0):
		return "#POISONED"
	}
	n, ok := l.ops[op.ID]
	if !ok {
		n = len(l.ops) + 1
		l.ops[op.ID] = n
	}
	s := fmt.Sprintf("#%d.pid%d.uid%d", n, op.PID, op.Cred.UID)
	if op.Err() != nil {
		s += "/interrupted"
	}
	return s
}

// info logs every field of an OpInfo; a field that is not printed holds
// its zero value. A line that ends an Intercept call carries what it
// returned.
func (l *obsLog) info(depth int, mark string, info *vfs.OpInfo, ret ...error) {
	fmt.Fprintf(&l.buf, "  %d%s %v %s ino=%d", depth, mark, info.Kind, l.op(info.Op), info.Ino)
	if info.Name != "" {
		fmt.Fprintf(&l.buf, " name=%q", info.Name)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"bytes", info.Bytes}, {"result", int(info.ResultIno)}, {"newparent", int(info.NewParentIno)}} {
		if f.v != 0 {
			fmt.Fprintf(&l.buf, " %s=%d", f.name, f.v)
		}
	}
	if info.NewName != "" {
		fmt.Fprintf(&l.buf, " newname=%q", info.NewName)
	}
	for _, err := range ret {
		fmt.Fprintf(&l.buf, " -> %v", vfs.ToErrno(err))
	}
	l.buf.WriteByte('\n')
}

// ret logs what a call returned.
func (l *obsLog) ret(call string, vals ...any) {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case vfs.Attr:
			parts[i] = fmt.Sprintf("attr{ino=%d %v mode=%o nlink=%d uid=%d gid=%d rdev=%d size=%d blocks=%d}",
				v.Ino, v.Type, v.Mode, v.Nlink, v.UID, v.GID, v.Rdev, v.Size, v.Blocks)
		case []vfs.Dirent:
			var ents []string
			for _, e := range v {
				ents = append(ents, fmt.Sprintf("%s:%d:%v:%d", e.Name, e.Ino, e.Type, e.Off))
			}
			parts[i] = "[" + strings.Join(ents, " ") + "]"
		case error:
			parts[i] = "err=" + vfs.ToErrno(v).Error()
		case nil:
			parts[i] = "ok"
		default:
			parts[i] = fmt.Sprintf("%+v", v)
		}
	}
	l.printf("%s -> %s", call, strings.Join(parts, " "))
}

// chainMode is what the recorder at depth 1 does with an operation; the
// recorders at depths 0 and 2 only look.
type chainMode int

const (
	modePlain   chainMode = iota
	modeFault             // a vfs.FaultInjector answers EIO; next() is never called
	modeTwice             // next() is called twice, the second result returned
	modeReenter           // a Getattr through the same chain runs before next()
)

var chainModeNames = map[chainMode]string{
	modePlain: "plain", modeFault: "fault", modeTwice: "twice", modeReenter: "reenter",
}

// chainRig is a three-recorder chain over fs and the mode its middle
// recorder is in.
type chainRig struct {
	log  *obsLog
	mode chainMode
	fs   vfs.FS // the chain
	inj  *vfs.FaultInjector
}

func newChainRig(l *obsLog, backing vfs.FS) *chainRig {
	r := &chainRig{log: l, inj: vfs.NewFaultInjector(vfs.FaultRule{Kind: vfs.KindAny, Errno: vfs.EIO})}
	r.fs = vfs.Chain(backing, &chainRecorder{r, 0}, &chainRecorder{r, 1}, &chainRecorder{r, 2})
	return r
}

type chainRecorder struct {
	rig   *chainRig
	depth int
}

func (c *chainRecorder) Intercept(info *vfs.OpInfo, next func() error) error {
	l, mode := c.rig.log, c.rig.mode
	if c.depth != 1 {
		mode = modePlain
	}
	l.info(c.depth, ">", info)
	var err error
	switch mode {
	case modeFault:
		err = c.rig.inj.Intercept(info, next)
	case modeTwice:
		l.info(c.depth, "|", info, next())
		err = next()
	case modeReenter:
		if info.Kind == vfs.KindLookup {
			attr, gerr := c.rig.fs.Getattr(info.Op, vfs.RootIno)
			l.ret("  re-entrant getattr", attr, gerr)
		}
		err = next()
	default:
		err = next()
	}
	l.info(c.depth, "<", info, err)
	return err
}

// allKindsScript issues every one of the 29 operation kinds on fs, each
// under a request of its own, and logs what came back.
func allKindsScript(l *obsLog, fs vfs.FS) {
	op := func() *vfs.Op { return vfs.NewOp(nil, vfs.Root()) }
	root := vfs.RootIno

	dir, err := fs.Mkdir(op(), root, "d", 0o755)
	l.ret("mkdir", dir, err)
	file, h, err := fs.Create(op(), dir.Ino, "f", 0o644, vfs.ORdwr)
	l.ret("create", file, h, err)
	n, err := fs.Write(op(), h, 0, []byte("hello world"))
	l.ret("write", n, err)
	buf := make([]byte, 16)
	n, err = fs.Read(op(), h, 6, buf)
	l.ret("read", n, string(buf[:n]), err)
	l.ret("flush", fs.Flush(op(), h))
	l.ret("fsync", fs.Fsync(op(), h, true))
	l.ret("fallocate", fs.Fallocate(op(), h, 0, 0, 64))
	attr, err := fs.Getattr(op(), file.Ino)
	l.ret("getattr", attr, err)
	attr, err = fs.Setattr(op(), file.Ino, vfs.SetMode|vfs.SetSize, vfs.Attr{Mode: 0o600, Size: 5})
	l.ret("setattr", attr, err)
	attr, err = fs.Lookup(op(), dir.Ino, "f")
	l.ret("lookup", attr, err)
	attr, err = fs.Lookup(op(), dir.Ino, "missing")
	l.ret("lookup missing", attr, err)
	fs.Forget(op(), file.Ino, 1)
	l.ret("forget")
	l.ret("access", fs.Access(op(), file.Ino, vfs.AccessRead))
	l.ret("setxattr", fs.Setxattr(op(), file.Ino, "user.k", []byte("v"), vfs.XattrCreate))
	val, err := fs.Getxattr(op(), file.Ino, "user.k")
	l.ret("getxattr", string(val), err)
	names, err := fs.Listxattr(op(), file.Ino)
	l.ret("listxattr", names, err)
	l.ret("removexattr", fs.Removexattr(op(), file.Ino, "user.k"))
	fifo, err := fs.Mknod(op(), dir.Ino, "fifo", vfs.TypeFIFO, 0o600, 0)
	l.ret("mknod", fifo, err)
	sym, err := fs.Symlink(op(), dir.Ino, "s", "f")
	l.ret("symlink", sym, err)
	target, err := fs.Readlink(op(), sym.Ino)
	l.ret("readlink", target, err)
	hard, err := fs.Link(op(), file.Ino, dir.Ino, "hard")
	l.ret("link", hard, err)
	l.ret("rename", fs.Rename(op(), dir.Ino, "hard", root, "moved", vfs.RenameNoReplace))
	h2, err := fs.Open(op(), file.Ino, vfs.ORdonly)
	l.ret("open", h2, err)
	dh, err := fs.Opendir(op(), dir.Ino)
	l.ret("opendir", dh, err)
	ents, err := fs.Readdir(op(), dh, 0)
	l.ret("readdir", ents, err)
	l.ret("releasedir", fs.Releasedir(op(), dh))
	st, err := fs.Statfs(op(), root)
	l.ret("statfs", st, err)
	l.ret("release", fs.Release(op(), h2))
	l.ret("release", fs.Release(op(), h))
	l.ret("unlink", fs.Unlink(op(), root, "moved"))
	for _, name := range []string{"s", "fifo", "f"} {
		l.ret("unlink", fs.Unlink(op(), dir.Ino, name))
	}
	l.ret("rmdir", fs.Rmdir(op(), root, "d"))
}

// forgottenHandleScript: a Release (and a Releasedir) an interceptor
// short-circuited never reached the filesystem, yet the chain's handle
// table forgets the handle — the operations that follow on it, which the
// filesystem still serves, are shown inode 0.
func forgottenHandleScript(l *obsLog, r *chainRig) {
	fs, op := r.fs, func() *vfs.Op { return vfs.NewOp(nil, vfs.Root()) }
	file, h, err := fs.Create(op(), vfs.RootIno, "kept", 0o644, vfs.ORdwr)
	l.ret("create", file, h, err)
	dh, err := fs.Opendir(op(), vfs.RootIno)
	l.ret("opendir", dh, err)
	r.mode = modeFault
	l.ret("release, short-circuited", fs.Release(op(), h))
	l.ret("releasedir, short-circuited", fs.Releasedir(op(), dh))
	r.mode = modePlain
	n, err := fs.Write(op(), h, 0, []byte("still open"))
	l.ret("write on the forgotten handle", n, err)
	ents, err := fs.Readdir(op(), dh, 0)
	l.ret("readdir on the forgotten handle", ents, err)
	l.ret("release", fs.Release(op(), h))
	l.ret("releasedir", fs.Releasedir(op(), dh))
}

// clientScript drives the chain through a vfs.Client: the walker's
// lookups share their call's request, every call has a request of its
// own.
func clientScript(l *obsLog, fs vfs.FS) {
	cli := vfs.NewClient(fs, vfs.User(1000, 100))
	root := vfs.NewClient(fs, vfs.Root())
	l.ret("mkdirall", root.MkdirAll("/a/b", 0o777))
	l.ret("writefile", cli.WriteFile("/a/b/c", []byte("payload"), 0o640))
	attr, err := cli.Stat("/a/b/c")
	l.ret("stat", attr, err)
	l.ret("symlink", cli.Symlink("c", "/a/b/l"))
	attr, err = cli.Lstat("/a/./b//l")
	l.ret("lstat", attr, err)
	attr, err = cli.Stat("/a/b/l/")
	l.ret("stat through the link", attr, err)
	target, err := cli.Readlink("/a/b/l")
	l.ret("readlink", target, err)
	ents, err := cli.ReadDir("/a/b")
	l.ret("readdir", ents, err)
	f, err := cli.Open("/a/b/c", vfs.ORdwr, 0)
	l.ret("open", err)
	if err == nil {
		buf := make([]byte, 4)
		n, err := f.ReadAt(buf, 3)
		l.ret("readat", n, string(buf[:n]), err)
		n, err = f.Read(buf)
		l.ret("read", n, string(buf[:n]), err)
		n, err = f.Write([]byte("++"))
		l.ret("write", n, err)
		n, err = f.WriteAt([]byte("P"), 0)
		l.ret("writeat", n, err)
		pos, err := f.Seek(-2, 2)
		l.ret("seek", pos, err)
		l.ret("sync", f.Sync())
		l.ret("datasync", f.Datasync())
		l.ret("truncate", f.Truncate(3))
		attr, err = f.Stat()
		l.ret("fstat", attr, err)
		l.ret("close", f.Close())
		l.ret("close again", f.Close())
	}
	data, err := cli.ReadFile("/a/b/c")
	l.ret("readfile", string(data), err)
	l.ret("chmod", cli.Chmod("/a/b/c", 0o600))
	l.ret("truncate", cli.Truncate("/a/b/c", 1))
	l.ret("link", cli.Link("/a/b/c", "/a/b/h"))
	l.ret("rename", cli.Rename("/a/b/h", "/a/moved"))
	l.ret("mkdir", cli.Mkdir("/a/b/sub", 0o700))
	_, err = cli.Stat("/a/b/missing/deeper")
	l.ret("stat missing", err)
	_, err = cli.Stat("/a/b/c/not-a-dir")
	l.ret("stat through a file", err)
	l.ret("walktree", root.WalkTree("/", func(path string, attr vfs.Attr) error {
		l.ret("  visit", path, attr)
		return nil
	}))
	l.ret("removeall", root.RemoveAll("/a"))
}

// chainObservations runs the whole differential and returns its log.
func chainObservations() []byte {
	l := &obsLog{ops: map[uint64]int{}}
	for _, mode := range []chainMode{modePlain, modeFault, modeTwice, modeReenter} {
		l.printf("== all 29 kinds, mode=%s ==", chainModeNames[mode])
		r := newChainRig(l, memfs.New(memfs.Options{}))
		r.mode = mode
		allKindsScript(l, r.fs)
	}
	l.printf("== a short-circuited release ==")
	forgottenHandleScript(l, newChainRig(l, memfs.New(memfs.Options{})))
	for _, mode := range []chainMode{modePlain, modeFault} {
		l.printf("== through a client, mode=%s ==", chainModeNames[mode])
		r := newChainRig(l, memfs.New(memfs.Options{}))
		r.mode = mode
		clientScript(l, r.fs)
	}
	return l.buf.Bytes()
}

// compareChainGolden fails the test at the first line where got departs
// from the committed log.
func compareChainGolden(t *testing.T, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", chainGolden))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("observations depart from testdata/%s at line %d (%d lines against %d):\n got: %s\nwant: %s",
				chainGolden, i+1, len(gl), len(wl), g, w)
		}
	}
}

// TestChainObservationsUnchanged is the differential the chain's
// dispatcher is held to: three recording interceptors log every OpInfo
// field before and after next() at their depth, and the script logs what
// every call returned, over all 29 kinds (passed through, answered by a
// fault injector without next(), next() called twice, a re-entrant call
// from inside Intercept), a Release and a Releasedir that were
// short-circuited and a vfs.Client session. The committed log was taken
// with the closure-per-interceptor dispatcher this one replaced (commit
// 0d0e57c) and must be reproduced byte for byte.
func TestChainObservationsUnchanged(t *testing.T) {
	got := chainObservations()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", chainGolden), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compareChainGolden(t, got)
}
