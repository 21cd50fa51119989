package vfs_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// TestWalkSymlinkChainAtDepthLimit: a chain of exactly MaxSymlinkDepth
// symlinks resolves; one more trips ELOOP, matching the kernel's limit.
func TestWalkSymlinkChainAtDepthLimit(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.WriteFile("/target", []byte("end"), 0o644); err != nil {
		t.Fatal(err)
	}
	// linkN -> link(N-1) -> ... -> link1 -> /target
	prev := "/target"
	for i := 1; i <= vfs.MaxSymlinkDepth+1; i++ {
		name := fmt.Sprintf("/link%d", i)
		if err := cli.Symlink(prev, name); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	// Exactly MaxSymlinkDepth hops: resolvable.
	atLimit := fmt.Sprintf("/link%d", vfs.MaxSymlinkDepth)
	res, err := vfs.Walk(fs, cli.Op, vfs.RootIno, atLimit, true)
	if err != nil {
		t.Fatalf("walk at depth limit: %v", err)
	}
	if res.Attr.Type != vfs.TypeRegular {
		t.Fatalf("resolved to %v, want regular file", res.Attr.Type)
	}
	// One more hop: ELOOP.
	overLimit := fmt.Sprintf("/link%d", vfs.MaxSymlinkDepth+1)
	if _, err := vfs.Walk(fs, cli.Op, vfs.RootIno, overLimit, true); vfs.ToErrno(err) != vfs.ELOOP {
		t.Fatalf("walk over depth limit: %v, want ELOOP", err)
	}
}

// TestWalkSelfSymlinkLoops: the classic a->a loop also yields ELOOP.
func TestWalkSelfSymlinkLoops(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.Symlink("/self", "/self"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/self"); vfs.ToErrno(err) != vfs.ELOOP {
		t.Fatalf("self-loop: %v, want ELOOP", err)
	}
}

// TestWalkRootConfines: the directory a walk starts from is its root —
// ".." stops there and absolute symlink targets restart there — so a
// chrooted client on a single filesystem cannot name anything above it.
func TestWalkRootConfines(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	cli.MkdirAll("/jail/sub", 0o755)
	cli.WriteFile("/secret", []byte("out"), 0o644)
	cli.WriteFile("/jail/secret", []byte("in"), 0o644)
	cli.Symlink("/secret", "/jail/abs")
	cli.Symlink("../../secret", "/jail/sub/rel")
	jail, err := cli.Chroot("/jail")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/secret", "/../secret", "sub/../../secret", "/abs", "/sub/rel"} {
		if got, err := jail.ReadFile(p); err != nil || string(got) != "in" {
			t.Errorf("ReadFile(%q) = %q, %v; want the file inside the root", p, got, err)
		}
	}
	r, _ := cli.Resolve("/jail")
	if res, err := vfs.Walk(fs, cli.Op, r.Ino, "../../abs", true); err != nil || res.Attr.Size != 2 {
		t.Fatalf("Walk from a directory: %+v %v", res, err)
	}
	if _, err := cli.Chroot("/secret"); vfs.ToErrno(err) != vfs.ENOTDIR {
		t.Fatalf("chroot onto a file: %v, want ENOTDIR", err)
	}
}

// TestRenameExchangeAcrossDirectories: RENAME_EXCHANGE swaps two entries
// living in different parent directories, fixing up each directory's
// link counts and the children's parent pointers.
func TestRenameExchangeAcrossDirectories(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	for _, d := range []string{"/d1", "/d2"} {
		if err := cli.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.WriteFile("/d1/file", []byte("plain"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cli.MkdirAll("/d2/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteFile("/d2/sub/inner", []byte("deep"), 0o644); err != nil {
		t.Fatal(err)
	}
	r1, err := cli.Lresolve("/d1/file")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Lresolve("/d2/sub")
	if err != nil {
		t.Fatal(err)
	}
	// Swap a regular file in /d1 with a directory in /d2.
	if err := fs.Rename(cli.Op, r1.Parent, "file", r2.Parent, "sub", vfs.RenameExchange); err != nil {
		t.Fatalf("RENAME_EXCHANGE across directories: %v", err)
	}
	// The directory now lives at /d1/file, the file at /d2/sub.
	a1, err := cli.Lstat("/d1/file")
	if err != nil || a1.Type != vfs.TypeDirectory {
		t.Fatalf("/d1/file after exchange: %+v, %v (want directory)", a1, err)
	}
	a2, err := cli.Lstat("/d2/sub")
	if err != nil || a2.Type != vfs.TypeRegular {
		t.Fatalf("/d2/sub after exchange: %+v, %v (want regular)", a2, err)
	}
	// The moved directory's contents resolve through its new path, and
	// ".." points at the new parent.
	got, err := cli.ReadFile("/d1/file/inner")
	if err != nil || string(got) != "deep" {
		t.Fatalf("/d1/file/inner = %q, %v", got, err)
	}
	up, err := cli.Lresolve("/d1/file/..")
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := cli.Lresolve("/d1")
	if up.Ino != d1.Ino {
		t.Fatalf("exchanged dir's .. = ino %d, want /d1 (ino %d)", up.Ino, d1.Ino)
	}
	// Directory link counts survived the swap: removing everything works.
	if err := cli.RemoveAll("/d1"); err != nil {
		t.Fatal(err)
	}
	if err := cli.RemoveAll("/d2"); err != nil {
		t.Fatal(err)
	}
}

// TestRenameExchangeMissingTarget: RENAME_EXCHANGE requires both entries.
func TestRenameExchangeMissingTarget(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.WriteFile("/a", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := fs.Rename(cli.Op, vfs.RootIno, "a", vfs.RootIno, "missing", vfs.RenameExchange)
	if vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("exchange with missing target: %v, want ENOENT", err)
	}
}

// TestCanceledOpAbortsBlockedRead: a read blocked on an empty FIFO
// unwinds with EINTR when the Op's context is canceled — the memfs half
// of interrupt support, without the FUSE transport.
func TestCanceledOpAbortsBlockedRead(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if _, err := fs.Mknod(cli.Op, vfs.RootIno, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	r, err := cli.Lresolve("/pipe")
	if err != nil {
		t.Fatal(err)
	}
	// Open both ends concurrently: a blocking single-direction FIFO open
	// parks until its peer arrives (fifo(7) open-until-peer). The writer
	// stays open and idle, so the read below blocks in read, not open.
	type openRes struct {
		h   vfs.Handle
		err error
	}
	rc := make(chan openRes, 1)
	go func() {
		h, oerr := fs.Open(vfs.RootOp(), r.Ino, vfs.ORdonly)
		rc <- openRes{h, oerr}
	}()
	if _, err := fs.Open(cli.Op, r.Ino, vfs.OWronly); err != nil {
		t.Fatal(err)
	}
	or := <-rc
	if or.err != nil {
		t.Fatal(or.err)
	}
	h := or.h
	ctx, cancel := context.WithCancel(context.Background())
	op := vfs.NewOp(ctx, vfs.Root())
	done := make(chan error, 1)
	go func() {
		_, rerr := fs.Read(op, h, 0, make([]byte, 8))
		done <- rerr
	}()
	select {
	case rerr := <-done:
		t.Fatalf("read returned early: %v", rerr)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case rerr := <-done:
		if vfs.ToErrno(rerr) != vfs.EINTR {
			t.Fatalf("canceled read: %v, want EINTR", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the read")
	}
	// An already-canceled op fails fast, also with EINTR.
	if _, err := fs.Read(op, h, 0, make([]byte, 8)); vfs.ToErrno(err) != vfs.EINTR {
		t.Fatalf("read on canceled op: %v, want EINTR", err)
	}
	if err := fs.Release(cli.Op, h); err != nil {
		t.Fatal(err)
	}
}

// TestCanceledOpAbortsWalk: path resolution observes cancellation too.
func TestCanceledOpAbortsWalk(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := vfs.NewOp(ctx, vfs.Root())
	if _, err := vfs.Walk(fs, op, vfs.RootIno, "/a/b/c", true); vfs.ToErrno(err) != vfs.EINTR {
		t.Fatalf("walk under canceled op: %v, want EINTR", err)
	}
}
