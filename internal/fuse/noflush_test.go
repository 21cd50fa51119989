package fuse

import (
	"fmt"
	"testing"

	"cntr/internal/vfs"
)

// writeAndClose is create, one write and close of a small file: with the
// writeback cache the data reaches the server at close.
func writeAndClose(e *nosecEnv, path string) error {
	return e.cli.WriteFile(path, []byte("data"), 0o644)
}

// TestNoFlushNegotiatedOnce: a server mounted with NoFlush answers the
// first FLUSH with ENOSYS without asking its filesystem, that close(2)
// succeeds, and no later close sends the request. What close still does is
// write the file's dirty pages back.
func TestNoFlushNegotiatedOnce(t *testing.T) {
	e := nosecMount(t, DefaultMountOptions())
	if _, err := e.cli.Stat("/"); err != nil { // the root's attributes: asked once per mount
		t.Fatal(err)
	}
	const files = 100
	var perFile []int64
	for i := 0; i < files; i++ {
		before := e.conn.Stats().Requests
		if err := writeAndClose(e, fmt.Sprint("/f", i)); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		perFile = append(perFile, e.conn.Stats().Requests-before)
	}
	if n := e.spy.flushes.Load(); n != 0 {
		t.Errorf("the filesystem saw %d Flush calls, want none", n)
	}
	// LOOKUP (ENOENT), CREATE and the WRITE at close; RELEASE is one-way
	// and not counted. The first file's close also carried the one FLUSH.
	for i, n := range perFile {
		want := int64(3)
		if i == 0 {
			want = 4
		}
		if n != want {
			t.Fatalf("file %d took %d round trips, want %d", i, n, want)
		}
	}
	if !e.conn.noFlush.Load() {
		t.Error("the connection did not record the server's ENOSYS")
	}
	host := vfs.NewClient(e.host, vfs.Root())
	for i := 0; i < files; i++ {
		if got, err := host.ReadFile(fmt.Sprint("/f", i)); err != nil || string(got) != "data" {
			t.Fatalf("file %d on the host after close: %q, %v", i, got, err)
		}
	}
}

// TestNoFlushOffSendsEveryFlush: on the paper's configuration every close
// is a FLUSH the filesystem sees, and what it answers is what close(2)
// returns.
func TestNoFlushOffSendsEveryFlush(t *testing.T) {
	e := nosecMount(t, PaperMountOptions())
	e.spy.flushErr = func(n int64) error {
		if n == 3 {
			return vfs.EIO
		}
		return nil
	}
	for i := 1; i <= 5; i++ {
		want := vfs.OK
		if i == 3 {
			want = vfs.EIO
		}
		if err := writeAndClose(e, fmt.Sprint("/f", i)); vfs.ToErrno(err) != want {
			t.Fatalf("close %d = %v, want %v", i, err, want)
		}
		if n := e.spy.flushes.Load(); n != int64(i) {
			t.Fatalf("%d closes made %d Flush calls", i, n)
		}
	}
	if e.conn.noFlush.Load() {
		t.Error("no ENOSYS was answered, yet the connection stopped flushing")
	}
}

// TestNoFlushHostileServer: ENOSYS is believed once and for good. A server
// that says it, and would fail the next FLUSH with EIO, is never asked
// again — the kernel side has no switch back.
func TestNoFlushHostileServer(t *testing.T) {
	e := nosecMount(t, PaperMountOptions())
	e.spy.flushErr = func(n int64) error {
		if n == 1 {
			return vfs.ENOSYS
		}
		return vfs.EIO
	}
	for i := 0; i < 3; i++ {
		if err := writeAndClose(e, fmt.Sprint("/f", i)); err != nil {
			t.Fatalf("close %d = %v, want nil", i, err)
		}
	}
	if n := e.spy.flushes.Load(); n != 1 {
		t.Fatalf("%d FLUSH requests reached the server, want only the one it answered ENOSYS", n)
	}
}
