package phoronix

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// StreamingResult is one large-file streaming pass through the Cntr
// stack's pipelined writeback/readahead path: a sequential write of
// Bytes through the FUSE writeback cache with AsyncDepth windows in
// flight, an fsync, then a cold sequential read-back.
type StreamingResult struct {
	// WriteTime covers the streaming write plus fsync; ReadTime covers
	// the sequential read-back. Both are virtual (simulated) durations.
	WriteTime time.Duration
	ReadTime  time.Duration
	Bytes     int64
	// Windows counts the multi-request below-cache submissions
	// (readahead refills and writeback extent batches admitted as one
	// decision); BatchedOps is the operations they covered;
	// PerOpSubmits counts the one-request submissions.
	Windows      int64
	BatchedOps   int64
	PerOpSubmits int64
}

// streamGauge counts pipelined windows crossing the below-cache
// boundary. Counters are atomic: with AsyncDepth > 0 the cache keeps
// several submissions in flight through concurrent server workers.
type streamGauge struct {
	windows    atomic.Int64
	batchedOps atomic.Int64
	perOp      atomic.Int64
}

func (g *streamGauge) Intercept(info *vfs.OpInfo, next func() error) error { return next() }

// InterceptSubmit sees every below-cache Submit once: a multi-request
// window counts as a window, a one-request submission as per-op.
func (g *streamGauge) InterceptSubmit(info *vfs.OpInfo) error {
	if info.BatchOps > 1 {
		g.windows.Add(1)
		g.batchedOps.Add(int64(info.BatchOps))
	} else {
		g.perOp.Add(1)
	}
	return nil
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
// stack with asyncDepth pipelined windows: write in 64 KiB chunks,
// fsync, then read the file back in 64 KiB chunks after dropping the
// kernel-side cache (a fresh mount of the same host filesystem would
// behave identically; here the read-back is warm in the host cache but
// cold above it only for what the budget evicted). The below-cache
// window counters prove the traffic actually travelled the batched
// path.
func RunStreaming(size int64, asyncDepth int) (StreamingResult, error) {
	gauge := &streamGauge{}
	cfg := stackConfig()
	cfg.AsyncDepth = asyncDepth
	cfg.BelowCache = []vfs.Interceptor{gauge}
	c := stack.NewCntr(cfg)
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

	res.Windows = gauge.windows.Load()
	res.BatchedOps = gauge.batchedOps.Load()
	res.PerOpSubmits = gauge.perOp.Load()
	return res, nil
}
