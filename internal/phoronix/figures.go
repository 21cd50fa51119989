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
// NoSec, NoFlush and DirectRead included; the three panels beyond the
// paper have the paper's configuration as their "off" side.

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

// optPanel runs one suite row on two mounts and reports the pair.
func optPanel(name, row string, off, on fuse.MountOptions) (OptResult, error) {
	bench := findBench(row)
	before, err := runCntrWith(off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(on, bench)
	if err != nil {
		return OptResult{}, err
	}
	r := OptResult{Name: name, Before: before, After: after}
	if after > 0 {
		r.Speedup = float64(before) / float64(after)
	}
	return r, nil
}

// Figure3ReadCache reproduces panel (a): FOPEN_KEEP_CACHE off vs on for
// concurrent re-reads (Threaded I/O read, 4 readers).
func Figure3ReadCache() (OptResult, error) {
	off := fuse.DefaultMountOptions()
	off.KeepCache = false
	return optPanel("read cache (FOPEN_KEEP_CACHE)", "Threaded I/O: Read", off, fuse.DefaultMountOptions())
}

// Figure3Writeback reproduces panel (b): writeback cache off vs on for
// sequential 4KB writes (IOZone write).
func Figure3Writeback() (OptResult, error) {
	off := fuse.DefaultMountOptions()
	off.WritebackCache = false
	return optPanel("writeback cache", "IOzone: Write", off, fuse.DefaultMountOptions())
}

// Figure3Batching reproduces panel (c): PARALLEL_DIROPS off vs on for
// the compilebench read-tree stage.
func Figure3Batching() (OptResult, error) {
	off := fuse.DefaultMountOptions()
	off.ParallelDirops = false
	return optPanel("batching (PARALLEL_DIROPS)", "Compilebench: Read", off, fuse.DefaultMountOptions())
}

// Figure3Splice reproduces panel (d): splice read off vs on for
// sequential reads.
func Figure3Splice() (OptResult, error) {
	off := fuse.DefaultMountOptions()
	off.SpliceRead = false
	return optPanel("splice read", "IOzone: Read", off, fuse.DefaultMountOptions())
}

// Figure3NoSec is a fifth panel in Figure 3's style and beyond the
// paper: the paper's configuration without and with the per-inode
// S_NOSEC mark (fuse.MountOptions.NoSec) for sequential 4KB writes
// (IOZone write) — the row whose overhead the paper puts down to the
// security.capability lookup on every write (§5.2.2).
func Figure3NoSec() (OptResult, error) {
	on := fuse.PaperMountOptions()
	on.NoSec = true
	return optPanel("xattr absence (S_NOSEC)", "IOzone: Write", fuse.PaperMountOptions(), on)
}

// Figure3SmallFile is a sixth panel, also beyond the paper: the paper's
// configuration against the default for the compilebench create stage,
// the paper's worst small-file row. Each file there is created, written
// once and closed; the default spares it the GETXATTR of its one write
// (the file is born S_NOSEC) and the FLUSH of its close (NoFlush).
func Figure3SmallFile() (OptResult, error) {
	return optPanel("small file (born mark, no FLUSH)", "Compilebench: Create",
		fuse.PaperMountOptions(), fuse.DefaultMountOptions())
}

// Figure3SingleBuffer is a seventh panel, beyond the paper: the paper's
// configuration without and with DirectRead for the big sequential
// re-read (IOZone read), the row the paper puts down to data being cached
// on both sides of /dev/fuse (§5.2.1). The set fits the page cache once
// and not twice; with the server reading past the host's copy it is held
// once.
func Figure3SingleBuffer() (OptResult, error) {
	on := fuse.PaperMountOptions()
	on.DirectRead = true
	return optPanel("single buffer (server O_DIRECT)", "IOzone: Read", fuse.PaperMountOptions(), on)
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

func findBench(name string) *Benchmark {
	for i := range Suite {
		if Suite[i].Name == name {
			return &Suite[i]
		}
	}
	panic("phoronix: unknown benchmark " + name)
}
