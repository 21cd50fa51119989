package fuse_test

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/stack"
	"cntr/internal/vfs"
	"cntr/internal/xfstests"
)

// TestRecycledRequestsArePoisoned runs whole stacks with the recycling
// guard rail on: every released request frame and reply frame is filled
// with 0xDB before its next tenant (a payload-sized one before it goes
// back to its Conn for the next WRITE or READ), and the server's Op and
// Cred are wiped after every dispatch. Any layer that kept a frame
// slice, an *Op or a *Cred past the call it was handed to then serves
// garbage at once — file content of 0xDB bytes, a wrong name, a nil
// credential — instead of another request's data under load.
// Package-global hook: no test in this package runs in parallel.
func TestRecycledRequestsArePoisoned(t *testing.T) {
	fuse.PoisonReleased(true)
	t.Cleanup(func() { fuse.PoisonReleased(false) })

	t.Run("xfstests", func(t *testing.T) {
		c := stack.NewCntr(stack.Config{})
		defer c.Close()
		sum, _ := xfstests.Run(c.Top)
		wantFail := map[int]bool{375: true, 228: true, 391: true, 426: true}
		for _, r := range sum.Failures {
			if !wantFail[r.Num] {
				t.Errorf("generic/%03d %s fails only with recycled frames poisoned: %s", r.Num, r.Name, r.Reason)
			}
		}
		if sum.Passed != 90 || sum.Failed != 4 {
			t.Errorf("cntr under poison: %d passed / %d failed, want 90/4", sum.Passed, sum.Failed)
		}
	})

	t.Run("read back", func(t *testing.T) {
		// Without FOPEN_KEEP_CACHE every open drops the kernel-side pages,
		// so the read-back crosses the wire again.
		mount := fuse.DefaultMountOptions()
		mount.KeepCache = false
		c := stack.NewCntr(stack.Config{Mount: mount})
		defer c.Close()
		cli := vfs.NewClient(c.Top, vfs.Root())
		// Sizes on both sides of every buffer decision: replies that fit
		// the recycled storage, one past it, a full MaxWrite frame, and a
		// multi-frame file.
		sizes := []int{1, 100, 4000, 4096, 5000, 128 << 10, 1<<20 + 17}
		content := func(size int) []byte {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i*7 + size)
			}
			return data
		}
		for _, size := range sizes {
			path := fmt.Sprintf("/f%d", size)
			if err := cli.WriteFile(path, content(size), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := cli.Symlink(path, path+".ln"); err != nil {
				t.Fatal(err)
			}
		}
		reads := c.Conn.Stats().BytesIn
		for _, size := range sizes {
			path := fmt.Sprintf("/f%d", size)
			held := fuse.HeldFrames(c.Conn)
			got, err := cli.ReadFile(path + ".ln")
			if err != nil {
				t.Fatal(err)
			}
			if want := content(size); !bytes.Equal(got, want) {
				t.Fatalf("%s: read back %d bytes, %d of them 0xdb (a recycled frame), want %d bytes of pattern",
					path, len(got), bytes.Count(got, []byte{0xDB})-bytes.Count(want, []byte{0xDB}), size)
			}
			// The 1 MiB file alone is eight 128 KiB READs in a row, each
			// reply in storage the one before it gave back: the read
			// leaves the Conn holding the buffers it held before it.
			if size > 1<<20 && !maps.Equal(fuse.HeldFrames(c.Conn), held) {
				t.Fatalf("%s: the read-back made payload buffers instead of reusing the Conn's", path)
			}
			if target, err := cli.Readlink(path + ".ln"); err != nil || target != path {
				t.Fatalf("readlink %s.ln = %q, %v", path, target, err)
			}
		}
		if moved := c.Conn.Stats().BytesIn - reads; moved < 1<<20 {
			t.Fatalf("the read-back moved %d bytes over the wire: it was served from the kernel cache", moved)
		}
		ents, err := cli.ReadDir("/")
		if err != nil || len(ents) != 2*len(sizes) {
			t.Fatalf("readdir: %d entries, %v; want %d", len(ents), err, 2*len(sizes))
		}
		for _, d := range ents {
			if bytes.IndexByte([]byte(d.Name), 0xDB) >= 0 {
				t.Fatalf("directory entry %q was decoded from a recycled frame", d.Name)
			}
		}
	})
}
