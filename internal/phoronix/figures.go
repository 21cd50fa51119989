package phoronix

import (
	"time"

	"cntr/internal/fuse"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// OptResult is one before/after pair.
type OptResult struct {
	Name   string
	Before time.Duration // optimization off
	After  time.Duration // optimization on
}

// Panel is one comparison in Figure 3's style: one suite row on two
// mounts, a rule off and on.
type Panel struct {
	Name    string
	Row     string
	Off, On fuse.MountOptions
	// BeyondPaper marks a rule the paper does not have; the paper's
	// configuration is then the Off side.
	BeyondPaper bool
}

// Figure3 is the effectiveness of the individual optimizations (§5.2.3).
// The paper's four panels run with everything else at
// DefaultMountOptions, the rules beyond the paper included.
var Figure3 = figure3()

func figure3() []Panel {
	def, paper := fuse.DefaultMountOptions(), fuse.PaperMountOptions()
	noKeep, noWriteback, noSplice := def, def, def
	noKeep.KeepCache = false
	noWriteback.WritebackCache = false
	noSplice.SpliceRead = false
	dirops := def
	dirops.ReaddirPlus = false
	noDirops := dirops
	noDirops.ParallelDirops = false
	nosec, direct, syncByFsync, noOpen, maxPages, noOpendir, plus := paper, paper, paper, paper, paper, paper, paper
	nosec.NoSec = true
	direct.DirectRead = true
	syncByFsync.SyncByFsync = true
	noOpen.NoOpen = true
	maxPages.MaxWrite = fuse.DefaultMountOptions().MaxWrite
	noOpendir.NoOpendir = true
	plus.ReaddirPlus = true
	return []Panel{
		// (a) concurrent re-reads, 4 readers.
		{Name: "read cache (FOPEN_KEEP_CACHE)", Row: "Threaded I/O: Read", Off: noKeep, On: def},
		// (b) sequential 4KB writes.
		{Name: "writeback cache", Row: "IOzone: Write", Off: noWriteback, On: def},
		// (c) the compilebench read-tree stage, a storm of LOOKUPs. Both
		// sides send no READDIRPLUS: it spares the storm most of its
		// LOOKUPs, and on the default mount the panel read 1.03x.
		{Name: "batching (PARALLEL_DIROPS)", Row: "Compilebench: Read", Off: noDirops, On: dirops},
		// (d) sequential reads.
		{Name: "splice read", Row: "IOzone: Read", Off: noSplice, On: def},
		// The per-inode S_NOSEC mark, on the row whose overhead the paper
		// puts down to the security.capability lookup on every write
		// (§5.2.2).
		{Name: "xattr absence (S_NOSEC)", Row: "IOzone: Write", Off: paper, On: nosec, BeyondPaper: true},
		// The paper's worst small-file row: each file is created, written
		// once and closed, and the default spares it the GETXATTR of its
		// one write (the file is born S_NOSEC) and the FLUSH of its close.
		{Name: "small file (born mark, no FLUSH)", Row: "Compilebench: Create", Off: paper, On: def, BeyondPaper: true},
		// The row the paper puts down to data being cached on both sides
		// of /dev/fuse (§5.2.1): the set fits the page cache once and not
		// twice; with the server reading past the host's copy it is held
		// once.
		{Name: "single buffer (server O_DIRECT)", Row: "IOzone: Read", Off: paper, On: direct, BeyondPaper: true},
		// The row the paper puts down to CntrFS refusing O_DIRECT (§5.2.2):
		// its O_SYNC fallback pays a device barrier for the host's
		// synchronous write and another for the FSYNC the kernel sends after
		// it; with the host file opened without O_SYNC, the FSYNC's is the
		// only one.
		{Name: "single barrier (O_SYNC by FSYNC)", Row: "AIO-Stress", Off: paper, On: syncByFsync, BeyondPaper: true},
		// The paper's worst read row (§5.2 puts it down to per-file round
		// trips): each file it reads back costs an OPEN round trip and a
		// RELEASE, which a server answering OPEN with ENOSYS spares it.
		{Name: "zero-message open (FUSE_NO_OPEN_SUPPORT)", Row: "Compilebench: Read", Off: paper, On: noOpen, BeyondPaper: true},
		// The paper's WRITEs carry 128 KiB, 32 pages, the FUSE limit of its
		// day; with FUSE_MAX_PAGES one carries 256 pages, so a writeback
		// extent costs one round trip instead of eight, and the host takes
		// the data in larger writes.
		{Name: "large requests (FUSE_MAX_PAGES)", Row: "FS-Mark", Off: paper, On: maxPages, BeyondPaper: true},
		// Each client lists the same four unchanged directories: the
		// paper's CntrFS pays an OPENDIR, two READDIRs and a RELEASEDIR per
		// listing, and a server answering OPENDIR with ENOSYS lets the
		// kernel open each without a message and list it from its cache.
		{Name: "zero-message opendir (FUSE_NO_OPENDIR_SUPPORT)", Row: "Dbench: 128 Clients", Off: paper, On: noOpendir, BeyondPaper: true},
		// The paper's worst read row stats each file it lists, a LOOKUP
		// round trip apiece; a listing's first page sent as READDIRPLUS
		// brings 23 of a directory's 25 files with their attributes.
		{Name: "readdirplus (FUSE_DO_READDIRPLUS)", Row: "Compilebench: Read", Off: paper, On: plus, BeyondPaper: true},
	}
}

// runCntrWith times b on a Cntr stack mounted with mount, at the
// figures' workload seed.
func runCntrWith(mount fuse.MountOptions, b *Benchmark) (time.Duration, error) {
	r := Run(b, Setup{Config: stack.Config{Mount: mount}, Seed: 7})
	return r.Time, r.Err
}

// RunPanel runs p's row on both of its mounts.
func RunPanel(p Panel) (OptResult, error) {
	bench := findBench(p.Row)
	before, err := runCntrWith(p.Off, bench)
	if err != nil {
		return OptResult{}, err
	}
	after, err := runCntrWith(p.On, bench)
	if err != nil {
		return OptResult{}, err
	}
	return OptResult{Name: p.Name, Before: before, After: after}, nil
}

// figure4Threads are Figure 4's server thread counts, one thread first.
var figure4Threads = []int{1, 2, 4, 8, 16}

// Figure4Threads reproduces Figure 4: sequential-read throughput as the
// CntrFS server thread count grows — responsiveness costs a little
// throughput (queue contention).
func Figure4Threads() (map[int]time.Duration, error) {
	out := make(map[int]time.Duration)
	for _, threads := range figure4Threads {
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
