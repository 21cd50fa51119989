package main

import (
	"fmt"
	"hash/crc32"

	"cntr/internal/fuse"
	"cntr/internal/phoronix"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// fingerprintSeed is cmd/phoronix's seed and the seed the committed
// op-stream fingerprint was taken with. The internal/phoronix rows
// always run at it: they are the paper's fixed workloads, the rows
// printed here are the Figure 2 rows at every -seed, and the few of
// them that draw random offsets (IOzone: Read's ~35 cache misses of
// ~930 virtual µs each) would otherwise move a workload by several per
// cent from seed to seed, which no 1% bound survives. The -seed drives
// the bench-owned generators: one seeded row per workload, and the
// fleet's image tree and visiting order.
const fingerprintSeed = 42

// A workload is a set of rows, each run on a fresh native stack and a
// fresh CNTR stack every round. The first four partition Figure 2's
// twenty rows plus Meta-Storm, so no row runs twice; why each exists is
// in its why line (and, at length, in README.md).
type workload struct {
	name string
	why  string
	// rows names the internal/phoronix rows and seeded builds the
	// bench-owned row whose inputs come from the seed; the fleet
	// workload has neither (see fleetRound).
	rows   []string
	seeded func(seed uint64) phoronix.Benchmark
	fleet  bool
}

var workloads = []workload{
	{
		name:   "meta",
		why:    "small-file create/stat/open/unlink: FUSE round trips are ~3/4 of in-stack virtual time; the paper's worst rows, where a lookup-path change must show",
		rows:   []string{"Compilebench: Create", "Compilebench: Read", "PostMark", "Meta-Storm"},
		seeded: seededSpool,
	},
	{
		name:   "read",
		why:    "130 MB re-read that fits natively but not double-buffered, plus a warm read: host page cache + disk dominate, FUSE ~2%; a metadata optimisation predicts no change",
		rows:   []string{"IOzone: Read", "Threaded I/O: Read"},
		seeded: seededScan,
	},
	{
		name:   "write",
		why:    "writeback window, O_SYNC fallback and per-write xattr lookup; holds the rows where CNTR beats native, so a fix that only slows the baseline shows",
		rows:   []string{"AIO-Stress", "FIO", "IOzone: Write", "PGBench", "SQLite", "Threaded I/O: Write"},
		seeded: seededLog,
	},
	{
		name: "mixed",
		why:  "application mixes dominated by kernel page-cache hits, disk and compute, overhead ~1.1x: the control on which a layer optimisation should move nothing",
		rows: []string{"Apachebench", "Compilebench: Compile", "Dbench: 1 Clients", "Dbench: 12 Clients",
			"Dbench: 48 Clients", "Dbench: 128 Clients", "FS-Mark", "Gzip", "Unpack Tarball"},
		seeded: seededServe,
	},
	{
		name:  "fleet",
		why:   "4 mounts over one CAS and a 2-node cache tier cold-read a seeded image tree: the only workload on blobstore, cachecl and cachesvc; model unvalidated (no paper figure)",
		fleet: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// A unit is one row as the rounds run it, with the seed it runs at.
type unit struct {
	bench phoronix.Benchmark
	seed  uint64
	// seeded rows draw on -seed, so their byte counts and work units
	// are pinned only at fingerprintSeed (see fingerprint.go).
	seeded bool
}

// units resolves a suite workload's rows for one seed.
func (w *workload) units(seed uint64) ([]unit, error) {
	var out []unit
	for _, name := range w.rows {
		b, ok := findRow(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: internal/phoronix has no row %q", w.name, name)
		}
		out = append(out, unit{bench: b, seed: fingerprintSeed})
	}
	return append(out, unit{bench: w.seeded(seed), seed: seed, seeded: true}), nil
}

func findRow(name string) (phoronix.Benchmark, bool) {
	if name == phoronix.MetaStorm.Name {
		return phoronix.MetaStorm, true
	}
	for _, b := range phoronix.Suite {
		if b.Name == name {
			return b, true
		}
	}
	return phoronix.Benchmark{}, false
}

// stackConfig mirrors internal/phoronix's unexported experiment
// configuration (scaled RAM, deep FUSE writeback window). A drift from
// it shows as per-row times that no longer equal cmd/phoronix's, which
// TestRowsMatchPhoronixHarness pins.
func stackConfig() stack.Config {
	return stack.Config{
		RAM:               16 << 30 / phoronix.Scale,
		DirtyWindowNative: 256 << 10,
		DirtyWindowFuse:   1 << 30 / phoronix.Scale * 4,
		ReadAhead:         128 << 10,
		Mount:             fuse.DefaultMountOptions(),
	}
}

const kb = 1 << 10

// seededSpool is meta's seeded row: a mail spool of messages whose
// sizes and visiting order come from the seed. Every message fits one
// read buffer, so the op count is the same for every seed and only the
// bytes and the order vary.
func seededSpool(uint64) phoronix.Benchmark {
	return phoronix.Benchmark{
		Name: "Seeded: Spool", Workers: 1,
		Run: func(ctx *phoronix.Ctx) (int64, error) {
			const messages = 200
			if err := ctx.Cli.MkdirAll("/spool", 0o755); err != nil {
				return 0, err
			}
			payload := make([]byte, 16*kb)
			ctx.Rand.Bytes(payload)
			sizes := make([]int, messages)
			var work int64
			for i := range sizes {
				sizes[i] = 1 + ctx.Rand.Intn(len(payload))
				if err := ctx.Cli.WriteFile(spoolPath(i), payload[:sizes[i]], 0o644); err != nil {
					return 0, err
				}
			}
			for _, i := range ctx.Rand.Perm(messages) {
				attr, err := ctx.Cli.Stat(spoolPath(i))
				if err != nil {
					return 0, err
				}
				data, err := ctx.Cli.ReadFile(spoolPath(i))
				if err != nil {
					return 0, err
				}
				if int(attr.Size) != sizes[i] || crc32.ChecksumIEEE(data) != crc32.ChecksumIEEE(payload[:sizes[i]]) {
					return 0, fmt.Errorf("message %d read back %d bytes (stat %d), want %d with matching content",
						i, len(data), attr.Size, sizes[i])
				}
				if err := ctx.Cli.Remove(spoolPath(i)); err != nil {
					return 0, err
				}
				work += int64(len(data))
			}
			return work, nil
		},
	}
}

func spoolPath(i int) string { return fmt.Sprintf("/spool/msg%04d", i) }

// seededScan is read's seeded row: random-length reads at seeded
// offsets of a warm file, served by the page cache on both stacks.
func seededScan(uint64) phoronix.Benchmark {
	const size, reads, page = 8 << 20, 400, 4 * kb
	return phoronix.Benchmark{
		Name: "Seeded: Scan", Workers: 1,
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/scan.dat", make([]byte, size), 0o644)
		},
		Warmup: func(ctx *phoronix.Ctx) error {
			_, err := ctx.Cli.ReadFile("/scan.dat")
			return err
		},
		Run: func(ctx *phoronix.Ctx) (int64, error) {
			f, err := ctx.Cli.Open("/scan.dat", vfs.ORdonly, 0)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			buf := make([]byte, 16*page)
			var work int64
			for i := 0; i < reads; i++ {
				want := page * (1 + ctx.Rand.Intn(16))
				off := int64(page * ctx.Rand.Intn((size-len(buf))/page))
				n, err := f.ReadAt(buf[:want], off)
				if err != nil || n != want {
					return 0, fmt.Errorf("read of %d bytes at %d returned %d (%v)", want, off, n, err)
				}
				work += int64(n)
			}
			return work, nil
		},
	}
}

// seededLog is write's seeded row: appends of seeded record sizes with
// an fsync every hundred records.
func seededLog(uint64) phoronix.Benchmark {
	return phoronix.Benchmark{
		Name: "Seeded: Log", Workers: 1,
		Run: func(ctx *phoronix.Ctx) (int64, error) {
			const records = 600
			f, err := ctx.Cli.Open("/seeded.log", vfs.OWronly|vfs.OCreat|vfs.OAppend, 0o644)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			payload := make([]byte, 8*kb)
			ctx.Rand.Bytes(payload)
			var work int64
			for i := 1; i <= records; i++ {
				n, err := f.Write(payload[:512+ctx.Rand.Intn(len(payload)-511)])
				if err != nil {
					return 0, err
				}
				work += int64(n)
				if i%100 == 0 {
					if err := f.Sync(); err != nil {
						return 0, err
					}
				}
			}
			attr, err := f.Stat()
			if err != nil || attr.Size != work {
				return 0, fmt.Errorf("log is %d bytes (%v) after %d were appended", attr.Size, err, work)
			}
			return work, nil
		},
	}
}

// seededServe is mixed's seeded row: a static site whose page sizes and
// request popularity come from the seed, served from a warm cache with
// an access-log append per request (Apachebench's shape).
func seededServe(seed uint64) phoronix.Benchmark {
	const pages, maxPage = 32, 32 * kb
	sizes := make([]int, pages)
	r := sim.NewRand(seed ^ 0x5e12ed)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(maxPage)
	}
	page := func(i int) string { return fmt.Sprintf("/site/p%02d.html", i) }
	return phoronix.Benchmark{
		Name: "Seeded: Serve", Workers: 4,
		Prepare: func(cli *vfs.Client) error {
			if err := cli.MkdirAll("/site", 0o755); err != nil {
				return err
			}
			for i, n := range sizes {
				if err := cli.WriteFile(page(i), make([]byte, n), 0o644); err != nil {
					return err
				}
			}
			return nil
		},
		Warmup: func(ctx *phoronix.Ctx) error {
			for i := range sizes {
				if _, err := ctx.Cli.ReadFile(page(i)); err != nil {
					return err
				}
			}
			return nil
		},
		Run: func(ctx *phoronix.Ctx) (int64, error) {
			const requests = 2000
			logf, err := ctx.Cli.Open("/site.log", vfs.OWronly|vfs.OCreat|vfs.OAppend, 0o644)
			if err != nil {
				return 0, err
			}
			defer logf.Close()
			line := []byte("10.0.0.1 - - \"GET /p.html HTTP/1.1\" 200\n")
			buf := make([]byte, maxPage)
			var work int64
			for i := 0; i < requests; i++ {
				// The smaller of two draws skews requests to low pages.
				p := min(ctx.Rand.Intn(pages), ctx.Rand.Intn(pages))
				f, err := ctx.Cli.Open(page(p), vfs.ORdonly, 0)
				if err != nil {
					return 0, err
				}
				n, err := f.ReadAt(buf, 0)
				f.Close()
				if err != nil || n != sizes[p] {
					return 0, fmt.Errorf("page %d served %d bytes (%v), want %d", p, n, err, sizes[p])
				}
				ctx.Compute(150)
				if _, err := logf.Write(line); err != nil {
					return 0, err
				}
				work += int64(n)
			}
			return work, nil
		},
	}
}

// The fleet image tree: fleetDirs images of fleetFiles layers, each a
// seeded 62-64 KiB (one read buffer, so op counts do not vary with the
// seed; a narrow range, so neither does the tree's total by more than
// ~0.1%) of seeded content.
const (
	fleetMounts = 4
	fleetDirs   = 50
	fleetFiles  = 3
)

type fleetFile struct {
	path string
	data []byte
	sum  uint32
}

// fleetTree generates the image tree for a seed. Content is random per
// file, so every 4 KiB block of the working set is distinct and the CAS
// and the tier hold real bytes, not one folded chunk.
func fleetTree(seed uint64) []fleetFile {
	r := sim.NewRand(seed ^ 0xf1ee7)
	tree := make([]fleetFile, 0, fleetDirs*fleetFiles)
	for d := 0; d < fleetDirs; d++ {
		for f := 0; f < fleetFiles; f++ {
			data := make([]byte, 62*kb+r.Intn(2*kb+1))
			r.Bytes(data)
			tree = append(tree, fleetFile{
				path: fmt.Sprintf("/images/img%03d/layer%d.bin", d, f),
				data: data,
				sum:  crc32.ChecksumIEEE(data),
			})
		}
	}
	return tree
}

// seedTree writes the tree straight into a mount's backing filesystem,
// outside any measured window.
func seedTree(backing vfs.FS, tree []fleetFile) error {
	cli := vfs.NewClient(backing, vfs.Root())
	for i, f := range tree {
		if i%fleetFiles == 0 {
			if err := cli.MkdirAll(f.path[:len("/images/img000")], 0o755); err != nil {
				return err
			}
		}
		if err := cli.WriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// attrTier is the slice of cachecl.Client the fleet generator calls
// directly (metadata through the tier before the data read); the traced
// run substitutes a recording wrapper.
type attrTier interface {
	GetAttr(path string) ([]byte, bool)
	PutAttr(path string, val []byte) error
}

// fleetColdRead is one mount's measured phase, modelled on
// phoronix.RunMultiMount: stat (through the tier when there is one) and
// cold-read every file of the tree in seeded order, verifying length
// and content hash.
func fleetColdRead(mount int, tree []fleetFile, tier attrTier) phoronix.Benchmark {
	return phoronix.Benchmark{
		Name: fmt.Sprintf("Fleet: mount %d", mount), Workers: 1,
		Run: func(ctx *phoronix.Ctx) (int64, error) {
			var work int64
			for _, i := range ctx.Rand.Perm(len(tree)) {
				f := &tree[i]
				cached := false
				if tier != nil {
					_, cached = tier.GetAttr(f.path)
				}
				if !cached {
					attr, err := ctx.Cli.Stat(f.path)
					if err != nil {
						return 0, err
					}
					if attr.Size != int64(len(f.data)) {
						return 0, fmt.Errorf("%s: stat size %d, want %d", f.path, attr.Size, len(f.data))
					}
					if tier != nil {
						if err := tier.PutAttr(f.path, []byte(fmt.Sprintf("%d:%d", attr.Ino, attr.Size))); err != nil {
							return 0, err
						}
					}
				}
				data, err := ctx.Cli.ReadFile(f.path)
				if err != nil {
					return 0, err
				}
				if len(data) != len(f.data) || crc32.ChecksumIEEE(data) != f.sum {
					return 0, fmt.Errorf("%s: read %d bytes with a wrong content hash, want %d", f.path, len(data), len(f.data))
				}
				work += int64(len(data))
			}
			return work, nil
		},
	}
}
