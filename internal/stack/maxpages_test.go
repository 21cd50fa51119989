package stack

import (
	"fmt"
	"hash/crc32"
	"testing"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

var maxPagesNames = []string{"/a", "/b"}

// maxPagesPattern is what the program's writes are cut from, at an offset
// of its choosing: no layer writes to a caller's buffer.
var maxPagesPattern = func() []byte {
	b := make([]byte, 4<<20)
	sim.NewRand(1).Bytes(b)
	return b
}()

// maxPagesSize is a write size from 1 B to 3 MiB, weighted to either side
// of the two lanes' MaxWrite (128 KiB and 1 MiB).
func maxPagesSize(rng *sim.Rand) int {
	near := func(n int) int { return n - 4097 + rng.Intn(2*4097) }
	switch rng.Intn(6) {
	case 0:
		return rng.Intn(64) + 1
	case 1:
		return rng.Intn(16<<10) + 1
	case 2:
		return near(128 << 10)
	case 3:
		return near(1 << 20)
	case 4:
		return near(2 << 20)
	default:
		return rng.Intn(3<<20) + 1
	}
}

// maxPagesOffset is an offset within 4 MiB at, just past or just before a
// page boundary, or in the middle of a page.
func maxPagesOffset(rng *sim.Rand) int64 {
	return int64(rng.Intn(1024))<<12 + []int64{0, 1, 2048, 4095}[rng.Intn(4)]
}

// maxPagesStep runs the program's next operation, on one of three handle
// slots, and renders what the caller saw. An operation on a handle finds
// one: on an empty slot it opens one.
func maxPagesStep(_ *testing.T, e *env, rng *sim.Rand) string {
	name := maxPagesNames[rng.Intn(len(maxPagesNames))]
	slot := rng.Intn(3)
	f := e.files[slot]
	k := rng.Intn(20)
	if f == nil && (k < 12 || k >= 16) {
		flags := []vfs.OpenFlags{
			vfs.ORdwr | vfs.OCreat, vfs.OWronly | vfs.OCreat | vfs.OAppend,
			vfs.ORdwr | vfs.OCreat | vfs.OSync, vfs.OWronly | vfs.OCreat | vfs.OTrunc,
		}[rng.Intn(4)]
		nf, err := e.root.Open(name, flags, 0o644)
		if err == nil {
			e.files[slot] = &nf
		}
		return fmt.Sprintf("open %s %#x -> %d: %v", name, flags, slot, err)
	}
	switch {
	case k < 3:
		err := f.Close()
		e.files[slot] = nil
		return fmt.Sprintf("close %d: %v", slot, err)
	case k < 12:
		size := maxPagesSize(rng)
		start := rng.Intn(len(maxPagesPattern) - size)
		data := maxPagesPattern[start : start+size]
		off := maxPagesOffset(rng)
		n, err := f.WriteAt(data, off)
		return fmt.Sprintf("write %d %d@%d: %d %v", slot, len(data), off, n, err)
	case k < 14:
		got, err := e.root.ReadFile(name)
		return fmt.Sprintf("readfile %s: %d %08x %v", name, len(got), crc32.ChecksumIEEE(got), err)
	case k < 16 && f == nil:
		attr, err := e.root.Stat(name)
		return fmt.Sprintf("stat %s: %d %v", name, attr.Size, err)
	case k < 16:
		attr, err := f.Stat()
		return fmt.Sprintf("fstat %d: %d %v", slot, attr.Size, err)
	case k < 18:
		size := maxPagesOffset(rng)
		return fmt.Sprintf("ftruncate %d %d: %v", slot, size, f.Truncate(size))
	default:
		return fmt.Sprintf("fsync %d: %v", slot, f.Sync())
	}
}
