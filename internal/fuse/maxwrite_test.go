package fuse_test

import (
	"bytes"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// TestMaxWriteSplitsLargeWrites: one WRITE frame carries at most the
// mount's MaxWrite, 1 MiB on the default mount (FUSE_MAX_PAGES) and
// 128 KiB on the paper's. It counts the frames of a 2.5 MiB write on the
// connection, and of the writeback of a 4 MiB dirty file through
// stack.NewCntr, whose kernel-side cache flushes extents of the mount's
// MaxWrite.
func TestMaxWriteSplitsLargeWrites(t *testing.T) {
	content := func(size int) []byte {
		data := make([]byte, size)
		sim.NewRand(uint64(size)).Bytes(data)
		return data
	}
	for _, lane := range []struct {
		name             string
		opts             fuse.MountOptions
		write, writeback int64
	}{
		{"default", fuse.DefaultMountOptions(), 3, 4},
		{"paper", fuse.PaperMountOptions(), 20, 32},
	} {
		t.Run(lane.name+"/write", func(t *testing.T) {
			back := memfs.New(memfs.Options{})
			conn, srv := fuse.Mount(back, sim.NewClock(), sim.DefaultCostModel(), lane.opts)
			defer func() {
				conn.Unmount()
				srv.Wait()
			}()
			op := vfs.RootOp()
			_, h, err := conn.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			data := content(5 << 19)
			before := conn.Stats().Frames[fuse.OpWrite]
			if n, err := conn.Write(op, h, 0, data); n != len(data) || err != nil {
				t.Fatalf("wrote %d of %d bytes: %v", n, len(data), err)
			}
			if got := conn.Stats().Frames[fuse.OpWrite] - before; got != lane.write {
				t.Errorf("%d WRITE frames for 2.5 MiB at MaxWrite %d, want %d", got, lane.opts.MaxWrite, lane.write)
			}
			if got, _ := vfs.NewClient(back, vfs.Root()).ReadFile("/f"); !bytes.Equal(got, data) {
				t.Errorf("the server's file holds %d bytes, not the %d written", len(got), len(data))
			}
		})
		t.Run(lane.name+"/writeback", func(t *testing.T) {
			c := stack.NewCntr(stack.Config{Mount: lane.opts})
			defer c.Close()
			data := content(4 << 20)
			before := c.Conn.Stats().Frames[fuse.OpWrite]
			if err := vfs.NewClient(c.Top, vfs.Root()).WriteFile("/f", data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.Kernel.SyncFS(); err != nil {
				t.Fatal(err)
			}
			if got := c.Conn.Stats().Frames[fuse.OpWrite] - before; got != lane.writeback {
				t.Errorf("%d WRITE frames to write a 4 MiB file back at MaxWrite %d, want %d", got, lane.opts.MaxWrite, lane.writeback)
			}
			if got, _ := vfs.NewClient(c.HostPC, vfs.Root()).ReadFile("/f"); !bytes.Equal(got, data) {
				t.Errorf("the host holds %d bytes, not the %d written", len(got), len(data))
			}
		})
	}
}
