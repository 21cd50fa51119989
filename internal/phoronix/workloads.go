package phoronix

import (
	"fmt"
	"io"
	"time"

	"cntr/internal/vfs"
)

// kb/mb scale helpers.
const (
	kb = 1 << 10
	mb = 1 << 20
)

// Suite is the Figure 2 benchmark list, in the paper's order.
var Suite = []Benchmark{
	{
		Name: "AIO-Stress", Workers: 1, PaperOverhead: 2.6,
		// 2GB (scaled) of asynchronous 16KB writes. aio-stress wants
		// O_DIRECT; the native filesystem grants it (and the device
		// queue overlaps the latency, iodepth 16), while CntrFS cannot
		// (§5.1 #391), so the fallback processes every request
		// synchronously with O_SYNC — the paper's 2.6x. On the paper's
		// configuration each write pays two device barriers, the host's
		// O_SYNC write and the FSYNC the kernel follows it with; the
		// default opens the host file without O_SYNC
		// (fuse.MountOptions.SyncByFsync) and pays the FSYNC's alone.
		// rows.golden's fig2/paper and fig2/default AIO-Stress lines
		// hold the two.
		Run: func(ctx *Ctx) (int64, error) {
			total := int64(2048) * mb / Scale
			rec := int64(32) * kb
			buf := make([]byte, rec)
			f, err := ctx.Cli.Open("/aio", vfs.OWronly|vfs.OCreat|vfs.ODirect, 0o644)
			if err == nil {
				ctx.Disk.SetQueueDepth(16)
				defer ctx.Disk.SetQueueDepth(1)
			} else {
				f, err = ctx.Cli.Open("/aio", vfs.OWronly|vfs.OCreat|vfs.OSync, 0o644)
				if err != nil {
					return 0, err
				}
			}
			defer f.Close()
			for off := int64(0); off < total; off += rec {
				if _, err := f.WriteAt(buf, off); err != nil {
					return 0, err
				}
			}
			return total, nil
		},
	},
	{
		Name: "Apachebench", Workers: 4, PaperOverhead: 1.5,
		// 100K (scaled) HTTP requests for ~3KB files: each request reads
		// cached content and appends ~90 bytes to the access log. The
		// log writes trigger the uncached security.capability lookup on
		// FUSE (§5.2.2).
		Prepare: func(cli *vfs.Client) error {
			cli.MkdirAll("/www", 0o755)
			for _, page := range wwwPages {
				if err := cli.WriteFile(page, make([]byte, 3*kb), 0o644); err != nil {
					return err
				}
			}
			return nil
		},
		Warmup: func(ctx *Ctx) error {
			for _, page := range wwwPages {
				if _, err := ctx.Cli.ReadFile(page); err != nil {
					return err
				}
			}
			return nil
		},
		Run: func(ctx *Ctx) (int64, error) {
			requests := int64(100000) / Scale
			logf, err := ctx.Cli.Open("/access.log", vfs.OWronly|vfs.OCreat|vfs.OAppend, 0o644)
			if err != nil {
				return 0, err
			}
			defer logf.Close()
			line := []byte(`10.0.0.1 - - [11/Jul/2018] "GET /page.html HTTP/1.1" 200 3072` + "\n")
			buf := make([]byte, 3*kb)
			for i := int64(0); i < requests; i++ {
				f, err := ctx.Cli.Open(wwwPages[i%int64(len(wwwPages))], vfs.ORdonly, 0)
				if err != nil {
					return 0, err
				}
				_, err = f.ReadAt(buf, 0)
				f.Close()
				if err != nil && err != io.EOF {
					return 0, err
				}
				ctx.Compute(150) // request parsing, socket handling, TCP
				if _, err := logf.Write(line); err != nil {
					return 0, err
				}
			}
			return requests, nil
		},
	},
	{
		Name: "Compilebench: Compile", Workers: 1, PaperOverhead: 2.3,
		// Compile a kernel module: read source files, write object files.
		Prepare: func(cli *vfs.Client) error { return srcTree.seed(cli, 8*kb) },
		Run: func(ctx *Ctx) (int64, error) {
			var work int64
			buf := make([]byte, 16*kb)
			for d := range srcTree.dirs {
				if err := srcTree.list(ctx.Cli, d); err != nil {
					return 0, err
				}
				for i, src := range srcTree.files[d] {
					f, err := ctx.Cli.Open(src, vfs.ORdonly, 0)
					if err != nil {
						return 0, err
					}
					n, err := f.ReadAt(buf, 0)
					f.Close()
					if err != nil && err != io.EOF {
						return 0, err
					}
					ctx.Compute(40) // cc1 work per translation unit
					if err := ctx.Cli.WriteFile(objTree.files[d][i], buf[:n/2+1], 0o644); err != nil {
						return 0, err
					}
					work += int64(n)
				}
			}
			return work, nil
		},
	},
	{
		Name: "Compilebench: Create", Workers: 1, PaperOverhead: 7.3,
		// Initial tree creation (tarball-unpack simulation): many small
		// files, metadata-dominated.
		Run: func(ctx *Ctx) (int64, error) {
			files := int64(0)
			payload := make([]byte, 6*kb)
			for d, dir := range createTree.dirs {
				if err := ctx.Cli.MkdirAll(dir, 0o755); err != nil {
					return 0, err
				}
				for _, file := range createTree.files[d] {
					if err := ctx.Cli.WriteFile(file, payload, 0o644); err != nil {
						return 0, err
					}
					files++
				}
			}
			return files, nil
		},
	},
	{
		Name: "Compilebench: Read", Workers: 1, PaperOverhead: 13.3,
		// Read a freshly created source tree. Every run reads a new tree,
		// so the dentry cache is cold and every file costs CntrFS its
		// open()+stat() lookup path — the paper's worst case.
		Warmup: func(ctx *Ctx) error {
			if err := readTree.seed(ctx.Cli, 8*kb); err != nil {
				return err
			}
			// The benchmark reads a *different* tree every iteration, so
			// its dentries are never warm: expire them before timing.
			expireDentries(ctx)
			return nil
		},
		Run: func(ctx *Ctx) (int64, error) {
			var work int64
			buf := make([]byte, 8*kb)
			for d := range readTree.dirs {
				if err := readTree.list(ctx.Cli, d); err != nil {
					return 0, err
				}
				for _, file := range readTree.files[d] {
					if _, err := ctx.Cli.Stat(file); err != nil {
						return 0, err
					}
					f, err := ctx.Cli.Open(file, vfs.ORdonly, 0)
					if err != nil {
						return 0, err
					}
					n, err := f.ReadAt(buf, 0)
					f.Close()
					if err != nil && err != io.EOF {
						return 0, err
					}
					work += int64(n)
				}
			}
			return work, nil
		},
	},
	dbench(1, 1.4),
	dbench(12, 0.9),
	dbench(48, 1.0),
	dbench(128, 1.0),
	{
		Name: "FS-Mark", Workers: 1, PaperOverhead: 1.0,
		// 1000 (scaled) 1MB files written in 16KB chunks with fsync:
		// disk-bound, so the stacks tie.
		Run: func(ctx *Ctx) (int64, error) {
			chunk := make([]byte, 16*kb)
			var work int64
			for _, mark := range markFiles {
				f, err := ctx.Cli.Create(mark, 0o644)
				if err != nil {
					return 0, err
				}
				for off := int64(0); off < mb; off += int64(len(chunk)) {
					if _, err := f.WriteAt(chunk, off); err != nil {
						return 0, err
					}
				}
				if err := f.Sync(); err != nil {
					return 0, err
				}
				f.Close()
				work += mb
			}
			return work, nil
		},
	},
	{
		Name: "FIO", Workers: 1, PaperOverhead: 0.2,
		// Fileserver profile: 80% random reads / 20% random writes of
		// 140KB blocks over a pre-existing data set, no fsync. The FUSE
		// writeback window outlives the run; the native filesystem
		// flushes inline (§5.2.2: CntrFS is *faster*).
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/fio.dat", make([]byte, 64*mb), 0o644)
		},
		Warmup: func(ctx *Ctx) error { return readAll(ctx, "/fio.dat") },
		Run: func(ctx *Ctx) (int64, error) {
			// The file stays open: fio reports bandwidth at io completion,
			// before close (whose FUSE flush would be outside the score).
			f, err := ctx.Cli.Open("/fio.dat", vfs.ORdwr, 0)
			if err != nil {
				return 0, err
			}
			block := make([]byte, 140*kb)
			span := int64(64*mb - 141*kb)
			var work int64
			for i := 0; i < 450; i++ {
				off := int64(ctx.Rand.Intn(int(span)))
				if ctx.Rand.Intn(10) < 8 {
					if _, err := f.ReadAt(block, off); err != nil {
						return 0, err
					}
				} else {
					if _, err := f.WriteAt(block, off); err != nil {
						return 0, err
					}
				}
				work += int64(len(block))
			}
			return work, nil
		},
	},
	{
		Name: "Gzip", Workers: 1, PaperOverhead: 1.0,
		// Compress a 2GB (scaled) file of zeros: compute-bound.
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/zeros", make([]byte, 32*mb), 0o644)
		},
		Run: func(ctx *Ctx) (int64, error) {
			f, err := ctx.Cli.Open("/zeros", vfs.ORdonly, 0)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			out, err := ctx.Cli.Create("/zeros.gz", 0o644)
			if err != nil {
				return 0, err
			}
			defer out.Close()
			buf := make([]byte, 128*kb)
			var work int64
			for off := int64(0); ; off += int64(len(buf)) {
				n, rerr := f.ReadAt(buf, off)
				if n == 0 {
					break
				}
				ctx.Compute(int64(n) / kb * 20) // deflate
				out.Write(buf[:n/1000+1])       // zeros compress ~1000:1
				work += int64(n)
				if rerr != nil {
					break
				}
			}
			return work, nil
		},
	},
	{
		Name: "IOzone: Read", Workers: 1, PaperOverhead: 2.1,
		// Sequential re-read of an 8GB (scaled) file. On the paper's
		// configuration the data set plus its second copy in the CntrFS
		// server's cache exceed RAM — double buffering degrades the read
		// (§5.2.2). The default mount's server reads past the host's cache
		// (fuse.MountOptions.DirectRead), the set is held once, and the
		// row runs at parity.
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/iozone.r", make([]byte, 130*mb), 0o644)
		},
		Warmup: func(ctx *Ctx) error { return readAll(ctx, "/iozone.r") },
		Run: func(ctx *Ctx) (int64, error) {
			// Re-read the whole data set in 128KB records. The set fits
			// the native page cache, but its double-buffered footprint
			// exceeds RAM on a Cntr stack that keeps both copies, so a
			// fraction of records miss all the way to the disk (the
			// paper's 8GB case). The record order is randomized because
			// the simulator's page cache evicts in insertion order (a
			// re-read never moves a page back), which makes a sequential
			// overflow scan all-or-nothing and would overstate the paper's
			// partial degradation.
			f, err := ctx.Cli.Open("/iozone.r", vfs.ORdonly, 0)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			buf := make([]byte, 128*kb)
			records := int64(130 * mb / (128 * kb))
			for _, idx := range ctx.Rand.Perm(int(records)) {
				if _, err := f.ReadAt(buf, int64(idx)*128*kb); err != nil {
					return 0, err
				}
			}
			return 130 * mb, nil
		},
	},
	{
		Name: "IOzone: Write", Workers: 1, PaperOverhead: 1.2,
		// Sequential write, 4KB records: the per-write xattr lookup is
		// the overhead (§5.2.2).
		Run: func(ctx *Ctx) (int64, error) {
			f, err := ctx.Cli.Create("/iozone.w", 0o644)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			rec := make([]byte, 4*kb)
			total := int64(64) * mb
			for off := int64(0); off < total; off += int64(len(rec)) {
				if _, err := f.WriteAt(rec, off); err != nil {
					return 0, err
				}
			}
			return total, nil
		},
	},
	{
		Name: "PostMark", Workers: 1, PaperOverhead: 7.1,
		// Mail server: create/append/read/delete small files; files die
		// before any sync, so metadata round trips dominate.
		Run: func(ctx *Ctx) (int64, error) {
			if err := ctx.Cli.MkdirAll("/mail", 0o755); err != nil {
				return 0, err
			}
			msg := make([]byte, 2*kb)
			for _, name := range mailMsgs {
				if err := ctx.Cli.WriteFile(name, msg, 0o644); err != nil {
					return 0, err
				}
				if _, err := ctx.Cli.ReadFile(name); err != nil {
					return 0, err
				}
				// Messages die before any sync reaches the disk.
				if err := ctx.Cli.Remove(name); err != nil {
					return 0, err
				}
			}
			return int64(len(mailMsgs)), nil
		},
	},
	{
		Name: "PGBench", Workers: 4, PaperOverhead: 0.4,
		// TPC-B-ish transactions over a warmed table: cached reads plus
		// random page updates and WAL appends, no per-transaction fsync.
		// The deep FUSE writeback window defers nearly all disk writes
		// past the measured window.
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/pgdata", make([]byte, 16*mb), 0o644)
		},
		Warmup: func(ctx *Ctx) error { return readAll(ctx, "/pgdata") },
		Run: func(ctx *Ctx) (int64, error) {
			// Long-lived database: the files stay open across the
			// measured window, as postgres keeps its relations open.
			table, err := ctx.Cli.Open("/pgdata", vfs.ORdwr, 0)
			if err != nil {
				return 0, err
			}
			wal, err := ctx.Cli.Open("/pgwal", vfs.OWronly|vfs.OCreat|vfs.OAppend, 0o644)
			if err != nil {
				return 0, err
			}
			page := make([]byte, 8*kb)
			walRec := make([]byte, 512)
			txns := int64(1500)
			pages := int64(16*mb/(8*kb)) - 1
			for i := int64(0); i < txns; i++ {
				for r := 0; r < 2; r++ {
					off := int64(ctx.Rand.Intn(int(pages))) * 8 * kb
					if _, err := table.ReadAt(page, off); err != nil {
						return 0, err
					}
				}
				off := int64(ctx.Rand.Intn(int(pages))) * 8 * kb
				if _, err := table.WriteAt(page, off); err != nil {
					return 0, err
				}
				if _, err := wal.Write(walRec); err != nil {
					return 0, err
				}
				ctx.Compute(20) // SQL execution
			}
			return txns, nil
		},
	},
	{
		Name: "SQLite", Workers: 1, PaperOverhead: 1.9,
		// 1000 (scaled) row inserts, each with the rollback-journal
		// dance: create journal, write, fsync, update DB page, fsync,
		// delete journal.
		Run: func(ctx *Ctx) (int64, error) {
			db, err := ctx.Cli.Open("/app.db", vfs.ORdwr|vfs.OCreat, 0o644)
			if err != nil {
				return 0, err
			}
			defer db.Close()
			inserts := int64(1000) / Scale * 8 // 125 inserts
			pg := make([]byte, 4*kb)
			for i := int64(0); i < inserts; i++ {
				j, err := ctx.Cli.Create("/app.db-journal", 0o644)
				if err != nil {
					return 0, err
				}
				if _, err := j.Write(pg); err != nil {
					return 0, err
				}
				if err := j.Sync(); err != nil {
					return 0, err
				}
				j.Close()
				if _, err := db.WriteAt(pg, (i%64)*4*kb); err != nil {
					return 0, err
				}
				if err := db.Sync(); err != nil {
					return 0, err
				}
				if err := ctx.Cli.Remove("/app.db-journal"); err != nil {
					return 0, err
				}
				ctx.Compute(60) // SQL parse/plan/execute
			}
			return inserts, nil
		},
	},
	{
		Name: "Threaded I/O: Read", Workers: 4, PaperOverhead: 1.1,
		// Four concurrent readers over one warmed 64MB (scaled) file:
		// served from the page cache on both stacks (FOPEN_KEEP_CACHE).
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/tio", make([]byte, 16*mb), 0o644)
		},
		Warmup: func(ctx *Ctx) error { return readAll(ctx, "/tio") },
		Run: func(ctx *Ctx) (int64, error) {
			var work int64
			for w := 0; w < 4; w++ {
				f, err := ctx.Cli.Open("/tio", vfs.ORdonly, 0)
				if err != nil {
					return 0, err
				}
				buf := make([]byte, 64*kb)
				for off := int64(0); off < 16*mb; off += int64(len(buf)) {
					if _, err := f.ReadAt(buf, off); err != nil {
						return 0, err
					}
				}
				f.Close()
				work += 16 * mb
			}
			return work, nil
		},
	},
	{
		Name: "Threaded I/O: Write", Workers: 4, PaperOverhead: 0.3,
		// Four writers issuing random 64KB writes with no sync: the FUSE
		// writeback buffer holds the data longer than the native
		// filesystem does (§5.2.2).
		Run: func(ctx *Ctx) (int64, error) {
			var work int64
			buf := make([]byte, 64*kb)
			for _, name := range twFiles {
				f, err := ctx.Cli.Open(name, vfs.OWronly|vfs.OCreat, 0o644)
				if err != nil {
					return 0, err
				}
				for i := 0; i < 64; i++ {
					off := int64(ctx.Rand.Intn(63)) * mb / 16
					if _, err := f.WriteAt(buf, off); err != nil {
						return 0, err
					}
				}
				// Writers keep their files open for the run's duration.
				work += 64 * 64 * kb
			}
			return work, nil
		},
	},
	{
		Name: "Unpack Tarball", Workers: 1, PaperOverhead: 1.2,
		// Unpack a kernel-style tarball: one sequential read source,
		// larger average files than compilebench create, fewer lookups.
		Prepare: func(cli *vfs.Client) error {
			return cli.WriteFile("/linux.tar", make([]byte, tarSize), 0o644)
		},
		Run: func(ctx *Ctx) (int64, error) {
			tar, err := ctx.Cli.Open("/linux.tar", vfs.ORdonly, 0)
			if err != nil {
				return 0, err
			}
			defer tar.Close()
			if err := ctx.Cli.MkdirAll("/linux", 0o755); err != nil {
				return 0, err
			}
			buf := make([]byte, tarChunk)
			var work int64
			for i := 0; ; i++ {
				n, rerr := tar.ReadAt(buf, work)
				if n == 0 {
					break
				}
				if i == len(tarObjs) {
					return 0, fmt.Errorf("/linux.tar holds more than %d bytes", tarSize)
				}
				if err := ctx.Cli.WriteFile(tarObjs[i], buf[:n], 0o644); err != nil {
					return 0, err
				}
				work += int64(n)
				if rerr != nil {
					break
				}
			}
			return work, nil
		},
	},
}

// MetaStorm is the metadata-write storm workload: sustained create /
// rename / unlink churn across many directories, with every file dying
// before any sync reaches the disk. It concentrates the request mix on
// the operations the request table's scheduler actually arbitrates
// (metadata round trips, never absorbed by the page cache), which makes
// it the scheduler's contention workload. It is NOT part of Suite —
// Figure 2 is the paper's fixed twenty rows — so the stress and chaos
// tests pick it up explicitly.
var MetaStorm = Benchmark{
	Name: "Meta-Storm", Workers: 4, PaperOverhead: 0,
	Run: func(ctx *Ctx) (int64, error) {
		for _, dir := range stormTmp.dirs {
			if err := ctx.Cli.MkdirAll(dir, 0o755); err != nil {
				return 0, err
			}
		}
		payload := make([]byte, 512)
		var ops int64
		for round := 0; round < 30; round++ {
			for d, tmp := range stormTmp.files {
				for _, name := range tmp {
					if err := ctx.Cli.WriteFile(name, payload, 0o644); err != nil {
						return 0, err
					}
					ops++
				}
				// Half the files are renamed into place (a tmp-then-rename
				// publish), half die immediately; the survivors die on the
				// next pass. Nothing lives long enough to be flushed.
				for i, name := range tmp {
					if i%2 == 0 {
						if err := ctx.Cli.Rename(name, stormPub.files[d][i]); err != nil {
							return 0, err
						}
					} else if err := ctx.Cli.Remove(name); err != nil {
						return 0, err
					}
					ops++
				}
				for i := 0; i < len(tmp); i += 2 {
					if err := ctx.Cli.Remove(stormPub.files[d][i]); err != nil {
						return 0, err
					}
					ops++
				}
			}
		}
		return ops, nil
	},
}

// dbench builds one Dbench row with the given client count.
func dbench(clients int, paper float64) Benchmark {
	return Benchmark{
		Name:    fmt.Sprintf("Dbench: %d Clients", clients),
		Workers: clients, PaperOverhead: paper,
		Prepare: func(cli *vfs.Client) error { return shareTree.seed(cli, 8*kb) },
		Run: func(ctx *Ctx) (int64, error) {
			// Each client opens the shared set once and then issues many
			// reads — dbench's NetBench-style loop is read-dominated and
			// the kernel cache serves it on both stacks (§5.2.2).
			var ops int64
			buf := make([]byte, 8*kb)
			for c := 0; c < clients; c++ {
				for d := range shareTree.dirs {
					if err := shareTree.list(ctx.Cli, d); err != nil {
						return 0, err
					}
					for _, file := range shareTree.files[d] {
						f, err := ctx.Cli.Open(file, vfs.ORdonly, 0)
						if err != nil {
							return 0, err
						}
						for lap := 0; lap < 100; lap++ {
							if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
								f.Close()
								return 0, err
							}
							ops++
						}
						f.Close()
					}
				}
			}
			return ops, nil
		},
	}
}

// The rows' path tables. Each is built once at package init and only
// read after, so no timed Run formats a path and no Run owns one.
var (
	stormTmp   = newTree("/storm", 8, 4, "t%02d")
	stormPub   = newTree("/storm", 8, 4, "pub%02d")
	createTree = newTree("/tree", 20, 25, "f%03d.c")
	readTree   = newTree("/rtree", 20, 25, "f%03d.c")
	srcTree    = newTree("/src", 12, 20, "f%03d.c")
	objTree    = newTree("/src", 12, 20, "f%03d.c.o")
	shareTree  = newTree("/share", 4, 12, "f%03d.c")
	wwwPages   = names(16, "/www/page%02d.html")
	mailMsgs   = names(500, "/mail/msg%05d")
	markFiles  = names(max(1000/Scale*4, 8), "/mark%04d") // 62.5 -> 64ish files at 1MB
	twFiles    = names(4, "/tw%d")
	tarObjs    = names(tarSize/tarChunk, "/linux/obj%04d")
)

// Unpack Tarball's archive and the chunk it unpacks as one file.
const tarSize, tarChunk = 48 * mb, 256 * kb

// names returns format applied to 0 … n-1.
func names(n int, format string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(format, i)
	}
	return out
}

// A tree is a row's directories, root/dirNN, and the files of each,
// named by a format of the file's index.
type tree struct {
	dirs  []string
	files [][]string
}

func newTree(root string, dirs, filesPer int, file string) tree {
	t := tree{dirs: names(dirs, root+"/dir%02d"), files: make([][]string, dirs)}
	for d, dir := range t.dirs {
		t.files[d] = names(filesPer, dir+"/"+file)
	}
	return t
}

// seed creates t with every file holding size bytes.
func (t tree) seed(cli *vfs.Client, size int64) error {
	payload := make([]byte, size)
	for d, dir := range t.dirs {
		if err := cli.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, file := range t.files[d] {
			if err := cli.WriteFile(file, payload, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// list reads directory d as the row does and checks that it lists
// exactly t's files, in t's order: the row then acts on t's paths, so a
// listing that disagrees fails it, naming the entry.
func (t tree) list(cli *vfs.Client, d int) error {
	dir, files := t.dirs[d], t.files[d]
	ents, err := cli.ReadDir(dir)
	if err != nil {
		return err
	}
	for i, e := range ents {
		if i == len(files) {
			return fmt.Errorf("%s lists %q past its %d files", dir, e.Name, len(files))
		}
		if want := files[i][len(dir)+1:]; e.Name != want {
			return fmt.Errorf("%s lists %q where %q belongs", dir, e.Name, want)
		}
	}
	if len(ents) < len(files) {
		return fmt.Errorf("%s does not list %q", dir, files[len(ents)][len(dir)+1:])
	}
	return nil
}

// readAll streams a file through the stack in 128KB requests, to its end
// or to the first error.
func readAll(ctx *Ctx, path string) error {
	f, err := ctx.Cli.Open(path, vfs.ORdonly, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 128*kb)
	for off := int64(0); ; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// expireDentries pushes virtual time past the dentry/attr TTL so the
// next tree scan revalidates over the wire — modelling a *fresh* tree
// whose dentries were never cached (compilebench reads a different tree
// each iteration).
func expireDentries(ctx *Ctx) {
	ctx.Clock.Advance(2 * time.Second)
}
