package phoronix

import (
	"bytes"
	"testing"
)

// TestStreamingSubmissionCounters pins the below-cache submission
// traffic of a streaming pass: the counters are submission-side and
// deterministic, so they must not move between runs or across a
// refactor of the submit path. The 16 MB file fits the cache, so the
// read-back submits nothing: the one window is the writeback batch. The
// 256 MB file does not, so its row also counts the eviction flushes and
// the readahead refills of the cold read-back (pagecache's
// TestPipelinedWindowShapes pins their shape). Only the counters are
// pinned: under AsyncDepth 8 the pass's virtual times vary with the
// order server workers complete a window in.
func TestStreamingSubmissionCounters(t *testing.T) {
	type row struct {
		size                       int64
		runs                       int
		windows, batchedOps, perOp int64
	}
	rows := []row{{16 << 20, 2, 1, 128, 0}}
	if !testing.Short() {
		rows = append(rows, row{256 << 20, 1, 5, 2055, 2041})
	}
	for _, row := range rows {
		for run := 0; run < row.runs; run++ {
			r, err := RunStreaming(row.size, 8)
			if err != nil {
				t.Fatal(err)
			}
			if r.Windows != row.windows || r.BatchedOps != row.batchedOps || r.PerOpSubmits != row.perOp {
				t.Fatalf("%d MB run %d: windows=%d batched-ops=%d per-op-submits=%d, want %d/%d/%d",
					row.size>>20, run, r.Windows, r.BatchedOps, r.PerOpSubmits,
					row.windows, row.batchedOps, row.perOp)
			}
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
