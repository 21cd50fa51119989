package fuse

import (
	"fmt"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// TestOneWayFramesChargeOnlyTheEnqueue pins what a frame nobody awaits
// costs the application: its sender's enqueue transition, one
// ContextSwitch, and nothing more. The server thread that serves it runs
// beside the application, so neither its wakeup nor the host's Release,
// Releasedir or Forget (memfs: free) reaches the shared clock. Each row
// sends n frames of its kind and then one GETATTR: the request table is
// one FIFO, so the GETATTR is popped after every frame queued before it,
// and the clock must read exactly n enqueues past a GETATTR measured
// alone — at one server thread and at four, where a sibling thread may
// still be serving the frames when the GETATTR's reply arrives.
func TestOneWayFramesChargeOnlyTheEnqueue(t *testing.T) {
	const n = 32
	op := vfs.RootOp()
	rows := []struct {
		name  string
		batch bool
		// prepare readies what send needs on c without being measured;
		// send then queues n frames of the row's kind.
		prepare func(t *testing.T, c *Conn, ino vfs.Ino) []vfs.Handle
		send    func(c *Conn, ino vfs.Ino, hs []vfs.Handle)
	}{
		{"RELEASE", true, func(t *testing.T, c *Conn, ino vfs.Ino) []vfs.Handle {
			return openN(t, n, func() (vfs.Handle, error) { return c.Open(op, ino, vfs.ORdonly) })
		}, func(c *Conn, _ vfs.Ino, hs []vfs.Handle) {
			for _, h := range hs {
				c.Release(op, h)
			}
		}},
		{"RELEASEDIR", true, func(t *testing.T, c *Conn, _ vfs.Ino) []vfs.Handle {
			return openN(t, n, func() (vfs.Handle, error) { return c.Opendir(op, vfs.RootIno) })
		}, func(c *Conn, _ vfs.Ino, hs []vfs.Handle) {
			for _, h := range hs {
				c.Releasedir(op, h)
			}
		}},
		{"FORGET", false, nil, func(c *Conn, ino vfs.Ino, _ []vfs.Handle) {
			for i := 0; i < n; i++ {
				c.Forget(op, ino, 1)
			}
		}},
		{"BATCH_FORGET", true, nil, func(c *Conn, ino vfs.Ino, _ []vfs.Handle) {
			for i := 0; i < n*ForgetBatchSize; i++ {
				c.Forget(op, ino, 1)
			}
		}},
	}
	for _, threads := range []int{1, 4} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/threads=%d", row.name, threads), func(t *testing.T) {
				clock, model := sim.NewClock(), sim.DefaultCostModel()
				opts := DefaultMountOptions()
				opts.ServerThreads = threads
				opts.BatchForget = row.batch
				opts.AttrTimeout = 0 // every GETATTR reaches the server, no forget is withheld
				c, srv := Mount(memfs.New(memfs.Options{}), clock, model, opts)
				attr, h, err := c.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
				if err != nil {
					t.Fatal(err)
				}
				c.Release(op, h)
				getattr := func() {
					if _, err := c.Getattr(op, attr.Ino); err != nil {
						t.Fatal(err)
					}
				}
				getattr() // the RELEASE above is served before it
				start := clock.Now()
				getattr()
				alone := clock.Now() - start

				var hs []vfs.Handle
				if row.prepare != nil {
					hs = row.prepare(t, c, attr.Ino)
				}
				start = clock.Now()
				row.send(c, attr.Ino, hs)
				getattr()
				got := clock.Now() - start
				c.Unmount()
				srv.Wait()

				// CREATE, RELEASE, two GETATTRs, the prepared handles, the
				// row's frames and its GETATTR.
				if want := int64(4 + len(hs) + n + 1); srv.Served() != want {
					t.Fatalf("the server served %d frames, want %d", srv.Served(), want)
				}
				if want := n*model.ContextSwitch + alone; got != want {
					t.Fatalf("%d %s frames and a GETATTR advanced the clock %v, want %v (%d enqueues of %v and the GETATTR's %v): %v more",
						n, row.name, got, want, n, model.ContextSwitch, alone, got-want)
				}
			})
		}
	}
}

// openN opens n handles with open.
func openN(t *testing.T, n int, open func() (vfs.Handle, error)) []vfs.Handle {
	t.Helper()
	hs := make([]vfs.Handle, n)
	for i := range hs {
		h, err := open()
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return hs
}
