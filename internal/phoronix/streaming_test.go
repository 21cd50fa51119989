package phoronix

import (
	"bytes"
	"testing"
)

// TestStreamingSubmissionCounters pins the below-cache submission
// traffic of a small streaming pass: the counters are submission-side
// and deterministic, so they must not move between runs or across a
// refactor of the submit path. The 16 MB file fits the cache, so the
// read-back submits nothing: the one window is the writeback batch. The
// 256 MB CI benchmark (BENCH_9.json) covers the readahead refills, and
// pagecache's TestPipelinedWindowShapes pins their shape in tier-1.
func TestStreamingSubmissionCounters(t *testing.T) {
	const windows, batchedOps, perOp = 1, 128, 0
	for run := 0; run < 2; run++ {
		r, err := RunStreaming(16<<20, 8)
		if err != nil {
			t.Fatal(err)
		}
		if r.Windows != windows || r.BatchedOps != batchedOps || r.PerOpSubmits != perOp {
			t.Fatalf("run %d: windows=%d batched-ops=%d per-op-submits=%d, want %d/%d/%d",
				run, r.Windows, r.BatchedOps, r.PerOpSubmits, windows, batchedOps, perOp)
		}
	}
}

// TestStreamingReadBackIsVerified pins that the streaming pass compares
// what it reads with what it wrote: the right length of wrong bytes — the
// symptom of a cache that lost track of the file's size — is an error,
// wherever in a chunk the read starts and however many chunks it spans.
func TestStreamingReadBackIsVerified(t *testing.T) {
	chunk := bytes.Repeat([]byte("stream01"), 4)
	file := bytes.Repeat(chunk, 3)
	for off := 0; off < len(chunk); off += 5 {
		if err := checkStream(chunk, file[off:], int64(off)); err != nil {
			t.Fatalf("correct read-back at %d: %v", off, err)
		}
		if err := checkStream(chunk, make([]byte, len(file)-off), int64(off)); err == nil {
			t.Fatalf("zeros at %d passed", off)
		}
		wrong := bytes.Clone(file[off:])
		wrong[len(wrong)-1] ^= 1
		if err := checkStream(chunk, wrong, int64(off)); err == nil {
			t.Fatalf("flipped last byte at %d passed", off)
		}
	}
}
