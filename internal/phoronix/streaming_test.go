package phoronix

import (
	"bytes"
	"testing"
)

// TestStreamingEvictions: the 16 MB pass fits both page caches and
// evicts nothing; the 256 MB one fills the RAM budget the two caches
// share, so the FUSE-side cache evicts. Both passes verify what they
// read back.
func TestStreamingEvictions(t *testing.T) {
	if r := pass(t, stream16MB); r.KernelEvictions != 0 || r.HostEvictions != 0 {
		t.Errorf("16 MB pass evicted %d kernel and %d host pages, want none", r.KernelEvictions, r.HostEvictions)
	}
	if testing.Short() {
		return
	}
	if r := pass(t, stream256MB); r.KernelEvictions == 0 {
		t.Errorf("256 MB pass evicted no kernel page")
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
