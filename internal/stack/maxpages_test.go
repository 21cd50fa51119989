package stack

import (
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// maxPagesEnv is one side of TestMaxPagesDifferential: a CntrFS stack or,
// as the reference, a bare memfs (c is nil), and the handles the program
// holds open on it.
type maxPagesEnv struct {
	c     *Cntr
	host  *memfs.FS
	cli   *vfs.Client
	files [3]*vfs.File
}

var maxPagesNames = []string{"/a", "/b"}

// maxPagesPattern is what the program's writes are cut from, at an offset
// of its choosing: no layer writes to a caller's buffer.
var maxPagesPattern = func() []byte {
	b := make([]byte, 4<<20)
	sim.NewRand(1).Bytes(b)
	return b
}()

func newMaxPagesEnv(mount *fuse.MountOptions) *maxPagesEnv {
	e := &maxPagesEnv{host: memfs.New(memfs.Options{})}
	var top vfs.FS = e.host
	if mount != nil {
		e.c = NewCntr(Config{Mount: *mount})
		e.host, top = e.c.Host, e.c.Top
	}
	e.cli = vfs.NewClient(top, vfs.Root())
	return e
}

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

// step runs the program's next operation and renders what the caller saw.
// An operation on a handle finds one: on an empty slot it opens one.
func (e *maxPagesEnv) step(rng *sim.Rand) string {
	name := maxPagesNames[rng.Intn(len(maxPagesNames))]
	slot := rng.Intn(len(e.files))
	f := e.files[slot]
	k := rng.Intn(20)
	if f == nil && (k < 12 || k >= 16) {
		flags := []vfs.OpenFlags{
			vfs.ORdwr | vfs.OCreat, vfs.OWronly | vfs.OCreat | vfs.OAppend,
			vfs.ORdwr | vfs.OCreat | vfs.OSync, vfs.OWronly | vfs.OCreat | vfs.OTrunc,
		}[rng.Intn(4)]
		nf, err := e.cli.Open(name, flags, 0o644)
		if err == nil {
			e.files[slot] = nf
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
		got, err := e.cli.ReadFile(name)
		return fmt.Sprintf("readfile %s: %d %08x %v", name, len(got), crc32.ChecksumIEEE(got), err)
	case k < 16 && f == nil:
		attr, err := e.cli.Stat(name)
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

// finish closes every handle, syncs both caches and renders the digest of
// what the host filesystem itself ends up holding.
func (e *maxPagesEnv) finish(t *testing.T) string {
	out := ""
	for slot, f := range e.files {
		if f != nil {
			out += fmt.Sprintf("close %d: %v; ", slot, f.Close())
		}
	}
	if e.c != nil {
		defer e.c.Close()
		if err := e.c.Kernel.SyncFS(); err != nil {
			t.Fatal(err)
		}
		if err := e.c.HostPC.SyncFS(); err != nil {
			t.Fatal(err)
		}
	}
	host := vfs.NewClient(e.host, vfs.Root())
	for _, name := range maxPagesNames {
		got, err := host.ReadFile(name)
		out += fmt.Sprintf("%s: %d %x %v; ", name, len(got), sha256.Sum256(got), err)
	}
	return out
}

// TestMaxPagesDifferential is the oracle for the default mount's 1 MiB
// MaxWrite (FUSE_MAX_PAGES): the same seeded program — writes of 1 B to
// 3 MiB at page-straddling offsets, through O_APPEND, O_SYNC and O_TRUNC
// handles, with ftruncates, fsyncs, stats and read-backs between them —
// runs on the default stack, on the default stack at the paper's 128 KiB,
// on the default stack written through (where a write(2) larger than
// MaxWrite is split by the connection, not by writeback) and on bare
// memfs. How many frames a write takes may change what it costs, never
// what it does: every count, errno, byte read back and size, and the
// digest of what the host filesystem holds after a sync, must be equal.
func TestMaxPagesDifferential(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() || raceBuild() {
		seeds = 4
	}
	large, small, through := fuse.DefaultMountOptions(), fuse.DefaultMountOptions(), fuse.DefaultMountOptions()
	small.MaxWrite = fuse.PaperMountOptions().MaxWrite
	through.WritebackCache = false
	sides := []struct {
		name  string
		mount *fuse.MountOptions
	}{{"1 MiB writes", &large}, {"128 KiB writes", &small}, {"1 MiB write-through", &through}, {"bare memfs", nil}}
	const ops = 40
	for seed := uint64(1); seed <= seeds; seed++ {
		envs, rngs := make([]*maxPagesEnv, len(sides)), make([]*sim.Rand, len(sides))
		for k, s := range sides {
			envs[k], rngs[k] = newMaxPagesEnv(s.mount), sim.NewRand(seed)
		}
		for i := 0; i <= ops; i++ {
			step := func(k int) string {
				if i == ops {
					return envs[k].finish(t)
				}
				return envs[k].step(rngs[k])
			}
			a := step(0)
			for k := 1; k < len(sides); k++ {
				if b := step(k); a != b {
					t.Fatalf("seed %d op %d:\n %s: %s\n %s: %s", seed, i, sides[0].name, a, sides[k].name, b)
				}
			}
		}
	}
}
