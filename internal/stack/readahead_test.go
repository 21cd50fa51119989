package stack

import (
	"bytes"
	"io"
	"testing"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// seqReadElapsed seeds a file on the host side of a fresh Cntr stack,
// then streams it sequentially through the FUSE-side stack with a cold
// kernel cache, returning the virtual time the read took. depth is the
// pipelined-readahead depth (0 = the synchronous pre-async path: every
// readahead window is one blocking round trip).
//
// Seeding goes through the host page cache on purpose: with the backing
// data in host memory, the measurement isolates the FUSE transport —
// the per-request round trips and wakeups §3.3 attributes CNTRFS's
// overhead to — which is the cost pipelined submission attacks. Seeded
// disk-cold instead, the disk model dominates both paths and the
// transport difference vanishes into the noise.
func seqReadElapsed(t *testing.T, depth int, size int64) time.Duration {
	t.Helper()
	c := NewCntr(Config{AsyncDepth: depth})
	defer c.Close()

	data := bytes.Repeat([]byte{0xA5}, int(size))
	hostCli := vfs.NewClient(c.HostPC, vfs.Root())
	if err := hostCli.WriteFile("/big", data, 0o644); err != nil {
		t.Fatal(err)
	}

	cli := vfs.NewClient(c.Top, vfs.Root())
	f, err := cli.Open("/big", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sw := sim.NewStopwatch(c.Clock)
	buf := make([]byte, 64<<10)
	var total int64
	for {
		n, err := f.Read(buf)
		total += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != size {
		t.Fatalf("read %d bytes, want %d", total, size)
	}
	return sw.Elapsed()
}

// TestAsyncReadaheadBeatsSyncSequentialRead is the acceptance check for
// the submit/await redesign: under the same cost model, streaming a cold
// file with pipelined readahead (AsyncDepth > 0) must take less virtual
// time than the synchronous path, because the round trips of in-flight
// windows overlap instead of serializing.
func TestAsyncReadaheadBeatsSyncSequentialRead(t *testing.T) {
	const size = 8 << 20
	sync := seqReadElapsed(t, 0, size)
	async := seqReadElapsed(t, 4, size)
	t.Logf("sequential %dMiB cold read: sync=%v async(depth=4)=%v (%.2fx)",
		size>>20, sync, async, float64(sync)/float64(async))
	if async >= sync {
		t.Fatalf("async readahead did not improve throughput: sync=%v async=%v", sync, async)
	}
}

// TestWriteInvalidatesInflightReadahead pins down readahead/write
// coherence: a window submitted before a write holds pre-write bytes,
// and harvesting it afterwards must not roll the cache back. The write
// path discards overlapping in-flight windows for exactly this reason.
func TestWriteInvalidatesInflightReadahead(t *testing.T) {
	opts := fuse.DefaultMountOptions()
	opts.WritebackCache = false // write-through: the write lands in the backing at once
	c := NewCntr(Config{AsyncDepth: 2, Mount: opts})
	defer c.Close()

	hostCli := vfs.NewClient(c.HostPC, vfs.Root())
	if err := hostCli.WriteFile("/f", bytes.Repeat([]byte{0xAA}, 512<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	cli := vfs.NewClient(c.Top, vfs.Root())
	f, err := cli.Open("/f", vfs.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Start the pipeline: this read harvests the first window and leaves
	// AsyncDepth windows beyond it in flight.
	head := make([]byte, 64<<10)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite a range covered by an in-flight window.
	patch := bytes.Repeat([]byte{0xBB}, 4096)
	if _, err := f.WriteAt(patch, 200<<10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(patch))
	if _, err := f.ReadAt(got, 200<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patch) {
		t.Fatal("read returned stale pre-write data harvested from an in-flight readahead window")
	}
}
