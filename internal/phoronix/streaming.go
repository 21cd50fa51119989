package phoronix

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// StreamingResult is one large-file streaming pass through the Cntr
// stack: a sequential write of Bytes through the FUSE writeback cache,
// an fsync, then a sequential read-back.
type StreamingResult struct {
	// WriteTime covers the streaming write plus fsync; ReadTime covers
	// the sequential read-back. Both are virtual (simulated) durations.
	WriteTime time.Duration
	ReadTime  time.Duration
	Bytes     int64
	// KernelEvictions and HostEvictions count the pages the FUSE-side
	// and the host-side page cache evicted over the pass: a file larger
	// than the budget streams through both.
	KernelEvictions int64
	HostEvictions   int64
}

// streamChunk is the application's write/read granularity — small
// against the dirty window, so batching below the cache is the stack's
// doing, not the workload's.
const streamChunk = 64 << 10

// checkStream compares got, read back from offset off, with what the
// streaming write put there: every write started on a chunk boundary, so
// offset o holds chunk[o%len(chunk)]. A read-back of the right length
// but the wrong bytes (zeros, say) must not pass.
func checkStream(chunk, got []byte, off int64) error {
	for len(got) > 0 {
		at := int(off % int64(len(chunk)))
		n := min(len(got), len(chunk)-at)
		if !bytes.Equal(got[:n], chunk[at:at+n]) {
			return fmt.Errorf("streaming read at %d: %d bytes differ from what was written", off, n)
		}
		got, off = got[n:], off+int64(n)
	}
	return nil
}

// RunStreaming streams one size-byte file sequentially through a Cntr
// stack: write in 64 KiB chunks, fsync, then read the file back in
// 64 KiB chunks, cold in the kernel-side cache only for what the budget
// evicted.
func RunStreaming(size int64) (StreamingResult, error) {
	c := stack.NewCntr(stackConfig())
	defer c.Close()
	cli := vfs.NewClient(c.Top, vfs.Root())

	chunk := bytes.Repeat([]byte("stream01"), streamChunk/8)
	res := StreamingResult{Bytes: size}

	start := c.Clock.Now()
	f, err := cli.Create("/stream.bin", 0o644)
	if err != nil {
		return res, err
	}
	for off := int64(0); off < size; off += int64(len(chunk)) {
		n := int64(len(chunk))
		if size-off < n {
			n = size - off
		}
		if _, err := f.Write(chunk[:n]); err != nil {
			return res, fmt.Errorf("streaming write at %d: %w", off, err)
		}
	}
	if err := f.Sync(); err != nil {
		return res, fmt.Errorf("fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	res.WriteTime = c.Clock.Now() - start

	start = c.Clock.Now()
	f, err = cli.Open("/stream.bin", vfs.ORdonly, 0)
	if err != nil {
		return res, err
	}
	buf := make([]byte, streamChunk)
	var got int64
	for {
		n, rerr := f.Read(buf)
		if err := checkStream(chunk, buf[:n], got); err != nil {
			return res, err
		}
		got += int64(n)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return res, fmt.Errorf("streaming read at %d: %w", got, rerr)
		}
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	if got != size {
		return res, fmt.Errorf("read back %d of %d bytes", got, size)
	}
	res.ReadTime = c.Clock.Now() - start

	res.KernelEvictions = c.Kernel.Stats().Evictions
	res.HostEvictions = c.HostPC.Stats().Evictions
	return res, nil
}
