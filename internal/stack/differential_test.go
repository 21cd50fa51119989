package stack

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

// The mount rules' differentials share one harness. A program runs, seed
// by seed, on each side of its list: CntrFS stacks that differ in the
// rule, and a reference. Every step renders what the caller saw, which
// must be what the first side saw; the last renders the digest of the
// whole tree the stack serves, once the caches are synced.

// side is one stack a program runs on: NewCntr(cfg), or, with ref set, a
// reference.
type side struct {
	name string
	cfg  Config
	ref  reference
}

type reference int

const (
	cntrStack   reference = iota // no reference: NewCntr(cfg)
	nativeStack                  // the native stack
	bareMemfs                    // a memfs with no cache over it
	// unionLower is NewMount(cfg) over a unionfs whose lower layer holds
	// what the program starts from, so each change is a copy-up or a
	// whiteout in the upper.
	unionLower
)

// env is a side built for one seed, and what the program holds open on
// it.
type env struct {
	top vfs.FS // where the program runs
	// base is beneath every cache, where a program may make what it
	// starts from: the host, or a union's lower layer.
	base vfs.FS
	// host is the tree the stack serves, which the finish digests.
	host       vfs.FS
	clock      *sim.Clock
	root, user *vfs.Client // on top
	sync       func() error
	close      func()

	files  [4]*vfs.File
	dirs   [3]vfs.Handle
	cookie [3]int64 // the last cookie each of dirs has read
}

func newEnv(s side) *env {
	e := &env{close: func() {}, sync: func() error { return nil }}
	switch s.ref {
	case cntrStack:
		c := NewCntr(s.cfg)
		e.top, e.host, e.clock, e.close = c.Top, c.Host, c.Clock, c.Close
		e.sync = func() error {
			if err := c.Kernel.SyncFS(); err != nil {
				return err
			}
			return c.HostPC.SyncFS()
		}
	case nativeStack:
		n := NewNative(s.cfg)
		e.top, e.host, e.clock, e.sync = n.Top, n.Mem, n.Clock, n.Cache.SyncFS
	case bareMemfs:
		m := memfs.New(memfs.Options{})
		e.top, e.host, e.clock = m, m, sim.NewClock()
	case unionLower:
		lower := memfs.New(memfs.Options{})
		u := unionfs.NewWith(unionfs.Options{}, lower)
		e.clock = sim.NewClock()
		m := NewMount(u, e.clock, sim.DefaultCostModel(), s.cfg)
		e.top, e.base, e.host, e.sync, e.close = m.Kernel, lower, u, m.Kernel.SyncFS, m.Close
	}
	if e.base == nil {
		e.base = e.host
	}
	e.root, e.user = vfs.NewClient(e.top, vfs.Root()), vfs.NewClient(e.top, vfs.User(1000, 1000))
	return e
}

// program is one differential: what each seed starts from (start may be
// nil), its steps, and the sides it runs on, seeds times with ops steps
// each, or shortSeeds times under -short or -race, where the detector is
// after interleavings, not programs.
type program struct {
	seeds, shortSeeds uint64
	ops               int
	start             func(t *testing.T, e *env, seed uint64)
	step              func(t *testing.T, e *env, rng *sim.Rand) string
	sides             []side
}

// runDifferential runs p on each side as a subtest, every seed on a fresh
// stack with its own sim.NewRand(seed), and fails a side at its first
// step that renders other than the first side to run did.
func runDifferential(t *testing.T, p program) {
	seeds := p.seeds
	if testing.Short() || raceBuild() {
		seeds = p.shortSeeds
	}
	// The first side's renderings are kept in one buffer, step i's at
	// want[ends[i-1]:ends[i]], rather than as a string each: the collector
	// then has no object per step to mark while the other sides run.
	var ref string
	var want []byte
	var ends []int
	for _, s := range p.sides {
		t.Run(s.name, func(t *testing.T) {
			record := ref == ""
			if record {
				ref = s.name
			}
			i := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				e := newEnv(s)
				if p.start != nil {
					p.start(t, e, seed)
				}
				rng := sim.NewRand(seed)
				for op := 0; op <= p.ops; op, i = op+1, i+1 {
					var got string
					if op < p.ops {
						got = p.step(t, e, rng)
					} else {
						got = e.finish(t)
					}
					if record {
						want = append(want, got...)
						ends = append(ends, len(want))
						continue
					}
					if i == len(ends) {
						t.Fatalf("seed %d op %d: %s stopped before it", seed, op, ref)
					}
					from := 0
					if i > 0 {
						from = ends[i-1]
					}
					if string(want[from:ends[i]]) != got {
						t.Fatalf("seed %d op %d:\n %s: %s\n %s: %s", seed, op, ref, want[from:ends[i]], s.name, got)
					}
				}
			}
		})
	}
}

// finish closes what the program left open, syncs the caches and renders
// the digest of the whole tree the stack serves: each entry's path, type,
// mode, link count and size, and its bytes or symlink target.
func (e *env) finish(t *testing.T) string {
	defer e.close()
	var out strings.Builder
	for slot, f := range e.files {
		if f != nil {
			fmt.Fprintf(&out, "close %d: %v; ", slot, errno(f.Close()))
		}
	}
	for slot := range e.dirs {
		out.WriteString(e.closedir(slot))
	}
	if err := e.sync(); err != nil {
		t.Fatal(err)
	}
	h, buf := sha256.New(), make([]byte, 64<<10)
	host := vfs.NewClient(e.host, vfs.Root())
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := host.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, d := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + d.Name
			attr, err := host.Lstat(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d %o %d %d;", p, attr.Type, attr.Mode, attr.Nlink, attr.Size)
			switch attr.Type {
			case vfs.TypeDirectory:
				walk(p)
			case vfs.TypeSymlink:
				target, err := host.Readlink(p)
				fmt.Fprintf(h, "-> %s %v;", target, err)
			default:
				f, err := host.Open(p, vfs.ORdonly, 0)
				if err != nil {
					t.Fatal(err)
				}
				n, err := io.CopyBuffer(h, &f, buf)
				fmt.Fprintf(h, ";%d %v %v;", n, err, f.Close())
			}
		}
	}
	walk("/")
	fmt.Fprintf(&out, "host tree %x", h.Sum(nil))
	return out.String()
}

// closedir closes the directory handle on slot, if there is one, and
// renders what that returned.
func (e *env) closedir(slot int) string {
	h := e.dirs[slot]
	if h == 0 {
		return ""
	}
	e.dirs[slot] = 0
	return fmt.Sprintf("closedir %d: %v; ", slot, errno(e.top.Releasedir(vfs.RootOp(), h)))
}

func errno(err error) vfs.Errno { return vfs.ToErrno(err) }

// mountWith is the default mount with change made to it.
func mountWith(change func(m *fuse.MountOptions)) fuse.MountOptions {
	m := fuse.DefaultMountOptions()
	change(&m)
	return m
}

// TestDirectReadDifferential is the oracle for MountOptions.DirectRead:
// the same seeded script — reads through read-only handles interleaved
// with writes, appends, truncates, fsyncs and unlinks through the handles
// open beside them, on files larger than the memory the two caches share —
// runs on the default mount, on the default with the rule switched off, on
// the default with a write-through kernel cache (whose O_APPEND writes pass
// it) and on bare memfs. Where the host keeps a copy may change what a read
// costs, never what it returns: every byte, size and errno, and what the
// host filesystem holds after a sync, must be equal.
func TestDirectReadDifferential(t *testing.T) {
	small := func(m fuse.MountOptions) Config { return Config{RAM: 128 << 10, ReadAhead: 16 << 10, Mount: m} }
	runDifferential(t, program{
		seeds: 500, shortSeeds: 60, ops: 80, start: directReadStart, step: directReadStep,
		sides: []side{
			{name: "with DirectRead", cfg: small(mountWith(func(m *fuse.MountOptions) { m.DirectRead = true }))},
			{name: "without", cfg: small(mountWith(func(m *fuse.MountOptions) { m.DirectRead = false }))},
			{name: "write-through", cfg: small(mountWith(func(m *fuse.MountOptions) { m.WritebackCache = false }))},
			{name: "bare memfs", ref: bareMemfs},
		},
	})
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
	runDifferential(t, program{
		seeds: 12, shortSeeds: 4, ops: 40, step: maxPagesStep,
		sides: []side{
			{name: "1 MiB writes", cfg: Config{Mount: fuse.DefaultMountOptions()}},
			{name: "128 KiB writes", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.MaxWrite = fuse.PaperMountOptions().MaxWrite })}},
			{name: "1 MiB write-through", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.WritebackCache = false })}},
			{name: "bare memfs", ref: bareMemfs},
		},
	})
}

// TestNoOpendirDifferential is the oracle for MountOptions.NoOpendir: the
// same seeded program — mkdir, create, unlink, rmdir, rename of files and
// directories across directories and over existing entries, link and
// symlink, interleaved with full listings as root and as uid 1000, chmods
// that make a listed directory 0700, and partial listings of held
// directory handles with entry changes between their Readdir calls — runs
// on the default stack, on the default stack with the rule off, without a
// dentry cache (where the rule is inert), without an attribute cache
// (where it checks every listing with a GETATTR) and on the native stack.
// Listing without a message may change what a listing costs, never what
// it returns: every errno and every listing, by name, type and cookie,
// must be equal, and so must the host tree after a sync. A handle on a
// directory removed while it is open reads ENOENT everywhere; an opendir
// of a file is ENOTDIR.
func TestNoOpendirDifferential(t *testing.T) {
	runDifferential(t, program{
		seeds: 16, shortSeeds: 4, ops: 120, start: dirStart, step: noOpendirStep,
		sides: []side{
			{name: "NoOpendir", cfg: Config{Mount: fuse.DefaultMountOptions()}},
			{name: "NoOpendir off", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.NoOpendir = false })}},
			{name: "EntryTimeout 0", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.EntryTimeout = 0 })}},
			{name: "AttrTimeout 0", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.AttrTimeout = 0 })}},
			{name: "native", ref: nativeStack},
		},
	})
}

// TestReaddirPlusDifferential is the oracle for MountOptions.ReaddirPlus:
// the same seeded program — listings of directories on either side of a
// READDIRPLUS page and of many pages, each followed by a stat of every
// entry, as root and as uid 1000 (who may read one directory but not
// search it, and gets EACCES on its entries' stats), interleaved with
// creates, unlinks, renames, links, chmods, truncations, writes the
// writeback cache holds back and the expiry of every dentry and
// attribute — runs on the default stack, on the default stack with the
// rule off, on the native stack and on a default mount over a union (a
// container's root, where the program's files are all made in the
// upper layer). Sending a listing's first page as a
// READDIRPLUS may change what a stat costs, never what it returns: every
// errno, type, mode, size and link count must be equal, two names of one
// inode must be one inode on every stack whether READDIRPLUS or a LOOKUP
// found them, and the host tree after a sync must be the same.
func TestReaddirPlusDifferential(t *testing.T) {
	runDifferential(t, program{
		seeds: 8, shortSeeds: 2, ops: 150, start: plusStart, step: plusStep,
		sides: []side{
			{name: "ReaddirPlus", cfg: Config{Mount: fuse.DefaultMountOptions()}},
			{name: "ReaddirPlus off", cfg: Config{Mount: mountWith(func(m *fuse.MountOptions) { m.ReaddirPlus = false })}},
			{name: "native", ref: nativeStack},
			{name: "unionfs lower under cntr", ref: unionLower},
		},
	})
}

// TestReaddirCookieDifferential runs both cookie programs, each one step
// over 100 files in /d, on every lane: what each lists, and the tree left
// behind, must be the native stack's, and neither may lose or repeat an
// entry. The union lane's files are in its lower layer, so each unlink is
// a whiteout in the upper, and with NoOpendir every READDIR is a fresh
// union handle: only a cookie that names an entry across handles resumes
// the listing.
func TestReaddirCookieDifferential(t *testing.T) {
	lanes := []side{
		{name: "native", ref: nativeStack},
		{name: "cntr default", cfg: Config{Mount: fuse.DefaultMountOptions()}},
		{name: "cntr paper", cfg: Config{Mount: fuse.PaperMountOptions()}},
		{name: "unionfs lower under cntr", ref: unionLower},
	}
	for _, prog := range []struct {
		name string
		step func(*testing.T, *env, *sim.Rand) string
	}{{"rm -r", rmListing}, {"create while listing", createListing}} {
		t.Run(prog.name, func(t *testing.T) {
			runDifferential(t, program{seeds: 1, shortSeeds: 1, ops: 1, start: cookieStart, step: prog.step, sides: lanes})
		})
	}
}
