package phoronix

import (
	"time"

	"cntr/internal/fuse"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// Figure 3 — effectiveness of the individual optimizations (§5.2.3).
// Each panel compares throughput with one optimization off vs on. The
// paper's four panels run with everything else at DefaultMountOptions,
// NoSec included.

// OptResult is one before/after pair.
type OptResult struct {
	Name    string
	Before  time.Duration // optimization off
	After   time.Duration // optimization on
	Speedup float64       // Before / After
}

// runCntrWith executes fn against a Cntr stack mounted with opts and
// returns the timed duration.
func runCntrWith(mount fuse.MountOptions, b *Benchmark) (time.Duration, error) {
	cfg := stackConfig()
	cfg.Mount = mount
	c := stack.NewCntr(cfg)
	defer c.Close()
	d, _, err := RunOn(b, c.Top, c.Host, c.Clock, c.Model, c.Disk, 7)
	return d, err
}

// Figure3ReadCache reproduces panel (a): FOPEN_KEEP_CACHE off vs on for
// concurrent re-reads (Threaded I/O read, 4 readers).
func Figure3ReadCache() (OptResult, error) {
	bench := findBench("Threaded I/O: Read")
	off := fuse.DefaultMountOptions()
	off.KeepCache = false
	before, err := runCntrWith(off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(fuse.DefaultMountOptions(), bench)
	if err != nil {
		return OptResult{}, err
	}
	return optResult("read cache (FOPEN_KEEP_CACHE)", before, after), nil
}

// Figure3Writeback reproduces panel (b): writeback cache off vs on for
// sequential 4KB writes (IOZone write).
func Figure3Writeback() (OptResult, error) {
	bench := findBench("IOzone: Write")
	off := fuse.DefaultMountOptions()
	off.WritebackCache = false
	before, err := runCntrWith(off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(fuse.DefaultMountOptions(), bench)
	if err != nil {
		return OptResult{}, err
	}
	return optResult("writeback cache", before, after), nil
}

// Figure3Batching reproduces panel (c): PARALLEL_DIROPS off vs on for
// the compilebench read-tree stage.
func Figure3Batching() (OptResult, error) {
	bench := findBench("Compilebench: Read")
	off := fuse.DefaultMountOptions()
	off.ParallelDirops = false
	before, err := runCntrWith(off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(fuse.DefaultMountOptions(), bench)
	if err != nil {
		return OptResult{}, err
	}
	return optResult("batching (PARALLEL_DIROPS)", before, after), nil
}

// Figure3Splice reproduces panel (d): splice read off vs on for
// sequential reads.
func Figure3Splice() (OptResult, error) {
	bench := findBench("IOzone: Read")
	off := fuse.DefaultMountOptions()
	off.SpliceRead = false
	before, err := runCntrWith(off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(fuse.DefaultMountOptions(), bench)
	if err != nil {
		return OptResult{}, err
	}
	return optResult("splice read", before, after), nil
}

// Figure3NoSec is a fifth panel in Figure 3's style and beyond the
// paper: the per-inode S_NOSEC mark (fuse.MountOptions.NoSec) off vs on
// for sequential 4KB writes (IOZone write) — the row whose overhead the
// paper puts down to the security.capability lookup on every write
// (§5.2.2). Off is the paper's configuration.
func Figure3NoSec() (OptResult, error) {
	bench := findBench("IOzone: Write")
	off := fuse.DefaultMountOptions()
	off.NoSec = false
	before, err := runCntrWith(off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(fuse.DefaultMountOptions(), bench)
	if err != nil {
		return OptResult{}, err
	}
	return optResult("xattr absence (S_NOSEC)", before, after), nil
}

// Figure4Threads reproduces Figure 4: sequential-read throughput as the
// CntrFS server thread count grows — responsiveness costs a little
// throughput (queue contention).
func Figure4Threads() (map[int]time.Duration, error) {
	out := make(map[int]time.Duration)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		mount := fuse.DefaultMountOptions()
		mount.ServerThreads = threads
		// Reads must cross the FUSE boundary for server threading to
		// matter: without FOPEN_KEEP_CACHE each re-open drops the kernel
		// pages and every record becomes a request (served from the
		// warm host cache, so the request path — not the disk — is
		// measured, as in the paper's 500MB set).
		mount.KeepCache = false
		bench := &Benchmark{
			Name: "seqread-500mb", Workers: 1,
			Prepare: func(cli *vfs.Client) error {
				return cli.WriteFile("/seq", make([]byte, 500*mb/Scale*8), 0o644)
			},
			// The paper's 500MB set fits every cache: after warmup the
			// run measures the request path, where queue contention
			// between server threads is visible.
			Warmup: func(ctx *Ctx) error { return readAll(ctx, "/seq") },
			Run: func(ctx *Ctx) (int64, error) {
				if err := readAll(ctx, "/seq"); err != nil {
					return 0, err
				}
				return 500 * mb / Scale * 8, nil
			},
		}
		d, err := runCntrWith(mount, bench)
		if err != nil {
			return nil, err
		}
		out[threads] = d
	}
	return out, nil
}

func optResult(name string, before, after time.Duration) OptResult {
	r := OptResult{Name: name, Before: before, After: after}
	if after > 0 {
		r.Speedup = float64(before) / float64(after)
	}
	return r
}

func findBench(name string) *Benchmark {
	for i := range Suite {
		if Suite[i].Name == name {
			return &Suite[i]
		}
	}
	panic("phoronix: unknown benchmark " + name)
}
