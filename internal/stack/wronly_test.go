package stack

import (
	"bytes"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/vfs"
)

// TestWronlySubPageWrite: a write smaller than a page, through a handle
// opened O_WRONLY, to a page of an existing file that no cache holds. The
// page cache has to read the page before it can modify it, and reads it as
// the kernel does, through the mapping: the writer's descriptor cannot be
// read from, and for the unprivileged owner of a mode-0200 file neither can
// the file — before and after the write.
func TestWronlySubPageWrite(t *testing.T) {
	// A stack under test: where syscalls enter, the filesystem under every
	// cache, and the caches to sync, top first.
	type built struct {
		top    vfs.FS
		host   *memfs.FS
		caches []*pagecache.Cache
		close  func()
	}
	cntr := func(mount fuse.MountOptions) built {
		c := NewCntr(Config{Mount: mount})
		return built{c.Top, c.Host, []*pagecache.Cache{c.Kernel, c.HostPC}, c.Close}
	}
	stacks := map[string]func() built{
		"native": func() built {
			n := NewNative(Config{})
			return built{n.Top, n.Mem, []*pagecache.Cache{n.Cache}, func() {}}
		},
		"cntr-default": func() built { return cntr(fuse.DefaultMountOptions()) },
		"cntr-paper":   func() built { return cntr(fuse.PaperMountOptions()) },
	}
	writers := map[string]struct {
		cred *vfs.Cred
		mode vfs.Mode
	}{
		"root":       {vfs.Root(), 0o644},
		"owner-0200": {vfs.User(1000, 1000), 0o200},
	}
	for sname, build := range stacks {
		for wname, w := range writers {
			t.Run(sname+"/"+wname, func(t *testing.T) {
				b := build()
				defer b.close()
				// Seeded behind the stack, so no cache above holds a page.
				content := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
				behind := vfs.NewClient(b.host, vfs.Root())
				if err := behind.WriteFile("/f", content, w.mode); err != nil {
					t.Fatal(err)
				}
				if err := behind.Chown("/f", w.cred.FSUID, w.cred.FSGID); err != nil {
					t.Fatal(err)
				}
				cli := vfs.NewClient(b.top, w.cred)
				f, err := cli.Open("/f", vfs.OWronly, 0)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := f.WriteAt([]byte("hello"), 10); n != 5 || err != nil {
					t.Fatalf("sub-page write through O_WRONLY: %d, %v", n, err)
				}
				if _, err := f.ReadAt(make([]byte, 5), 10); vfs.ToErrno(err) != vfs.EBADF {
					t.Fatalf("read through the O_WRONLY handle: %v, want EBADF", err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				if w.mode&0o400 == 0 {
					if _, err := cli.Open("/f", vfs.ORdonly, 0); vfs.ToErrno(err) != vfs.EACCES {
						t.Fatalf("mode %o file opened for reading by its owner: %v, want EACCES", w.mode, err)
					}
				}
				copy(content[10:], "hello")
				got, err := vfs.NewClient(b.top, vfs.Root()).ReadFile("/f")
				if err != nil || !bytes.Equal(got, content) {
					t.Fatalf("read back through the stack: %d bytes, %v; bytes 0..32 %q", len(got), err, got[:min(len(got), 32)])
				}
				for _, c := range b.caches {
					if err := c.SyncFS(); err != nil {
						t.Fatal(err)
					}
				}
				if got, err := behind.ReadFile("/f"); err != nil || !bytes.Equal(got, content) {
					t.Fatalf("behind the stack after sync: %d bytes, %v", len(got), err)
				}
			})
		}
	}
}
