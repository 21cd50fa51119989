package pagecache_test

import (
	"bytes"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
	"cntr/internal/xfstests"
)

// keeper is a backing that breaks the rule the scratch buffers rely on:
// it keeps the last slice Write was handed, and while lie is set its Read
// reports a full window without writing a byte of it.
type keeper struct {
	*memfs.FS
	kept []byte
	lie  bool
}

func (k *keeper) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	k.kept = data
	return k.FS.Write(op, h, off, data)
}

func (k *keeper) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	if k.lie {
		return len(dest), nil
	}
	return k.FS.Read(op, h, off, dest)
}

// TestScratchIsPoisoned runs the cache's differentials and whole stacks
// with the scratch guard rail on: a cache's extent buffer is filled with
// 0xDB after every extent it wrote back, its fill window before every
// blocking read and a dropped page's bytes as they go back to the slab,
// so a layer that keeps a buffer past its call, a backing that reports
// bytes it never wrote, or a holder of a page across its drop, shows as
// 0xDB content at once instead of another file's bytes some day. Package-global hook: no
// test in this package runs in parallel.
func TestScratchIsPoisoned(t *testing.T) {
	pagecache.PoisonScratch(true)
	t.Cleanup(func() { pagecache.PoisonScratch(false) })

	t.Run("late reader", func(t *testing.T) {
		back := &keeper{FS: memfs.New(memfs.Options{})}
		c := pagecache.New(back, sim.NewClock(), sim.DefaultCostModel(), pagecache.Options{KeepCache: true, Writeback: true})
		cli := vfs.NewClient(c, vfs.Root())
		f, err := cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var flushed [2][]byte
		for i := range flushed {
			if _, err := f.WriteAt(bytes.Repeat([]byte{'a' + byte(i)}, 3*pagecache.PageSize), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			flushed[i] = back.kept
			if len(flushed[i]) != 3*pagecache.PageSize || bytes.Count(flushed[i], []byte{0xDB}) != len(flushed[i]) {
				t.Fatalf("flush %d: the extent a backing kept reads %q..., want 0xDB throughout", i, flushed[i][:8])
			}
		}
		if &flushed[0][0] != &flushed[1][0] {
			t.Fatal("the second flush wrote from a new buffer: the extent scratch was not reused")
		}
		// A read that misses, against a backing that reports a window
		// it never wrote: the page holds the poisoned window.
		if err := vfs.NewClient(back.FS, vfs.Root()).WriteFile("/g", bytes.Repeat([]byte("g"), pagecache.PageSize), 0o644); err != nil {
			t.Fatal(err)
		}
		back.lie = true
		got, err := vfs.NewClient(pagecache.New(back, sim.NewClock(), sim.DefaultCostModel(), pagecache.Options{}), vfs.Root()).ReadFile("/g")
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xDB}, pagecache.PageSize)) {
			t.Fatalf("read through a lying backing: %q..., %v; want 0xDB throughout", got[:min(8, len(got))], err)
		}
	})
	t.Run("held page", pagecache.TestDroppedPagesArePoisoned)
	t.Run("coherence", pagecache.TestPropertyCacheCoherence)
	t.Run("writeback errors", pagecache.TestWritebackErrorReachesCloseAndFsync)
	t.Run("synchronous windows", pagecache.TestSynchronousWindowShapes)
	t.Run("xfstests", func(t *testing.T) {
		n := stack.NewNative(stack.Config{})
		if sum, _ := xfstests.Run(n.Top); sum.Passed != 94 {
			t.Errorf("native under poison: %d passed / %d failed, want 94/0", sum.Passed, sum.Failed)
		}
		c := stack.NewCntr(stack.Config{})
		defer c.Close()
		sum, _ := xfstests.Run(c.Top)
		wantFail := map[int]bool{375: true, 228: true, 391: true, 426: true}
		for _, r := range sum.Failures {
			if !wantFail[r.Num] {
				t.Errorf("generic/%03d %s fails only with scratch poisoned: %s", r.Num, r.Name, r.Reason)
			}
		}
		if sum.Passed != 90 || sum.Failed != 4 {
			t.Errorf("cntr under poison: %d passed / %d failed, want 90/4", sum.Passed, sum.Failed)
		}
	})
	t.Run("read back under budget pressure", func(t *testing.T) {
		// stack.TestReadBackSurvivesBudgetPressure's shape: every eviction
		// flush of the FUSE-side cache reaches a host-side cache with no
		// room, and the read-back crosses both caches' fills.
		for name, mount := range map[string]fuse.MountOptions{
			"paper": fuse.PaperMountOptions(), "default": fuse.DefaultMountOptions(),
		} {
			c := stack.NewCntr(stack.Config{RAM: 16 << 20, DirtyWindowFuse: 64 << 20, Mount: mount})
			cli := vfs.NewClient(c.Top, vfs.Root())
			data := make([]byte, 32<<20)
			sim.NewRand(7).Bytes(data)
			err := cli.WriteFile("/big", data, 0o644)
			var got []byte
			if err == nil {
				got, err = cli.ReadFile("/big")
			}
			c.Close()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: read back %d of %d bytes (%d of them 0xDB), %v", name, len(got), len(data), bytes.Count(got, []byte{0xDB}), err)
			}
		}
	})
}
