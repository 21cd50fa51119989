package stack

import (
	"bytes"
	"fmt"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// hideViews is a filesystem behind a wrapper that offers no page views.
type hideViews struct{ vfs.FS }

// newCntrHidingViews is NewCntr's stack, with no cache tier, whose CntrFS
// serves the host cache behind hideViews: the connection then offers the
// kernel-side cache no views, so it copies every READ reply, and nothing
// else differs.
func newCntrHidingViews(cfg Config) *Cntr {
	applyDefaults(&cfg)
	clock, model := sim.NewClock(), sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	budget := pagecache.NewMemBudget(cfg.RAM)
	host, hostPC := hostSide(cfg, clock, model, cfg.Store, disk, budget, sim.LayerHost)
	m := newMount(hideViews{hostPC}, clock, model, cfg, budget, nil)
	return &Cntr{Mount: m, Clock: clock, Model: model, Disk: disk, Host: host, HostPC: hostPC, Budget: budget, Top: m.Kernel}
}

// viewStack is one side of TestKernelViewDifferential: a Cntr stack and
// the two files a program holds open through its top.
type viewStack struct {
	c   *Cntr
	cli *vfs.Client // root, on c.Top
	app *vfs.Client // root, on the host cache: the application's side
	mem *vfs.Client // root, on memfs, beneath every cache
	// files[i] is viewFiles[i] open read-write through c.Top when opened[i].
	files  [2]vfs.File
	opened [2]bool
}

var viewFiles = [2]string{"/a", "/b"}

const viewSpan = 32 * pagecache.PageSize

// newViewStack builds a side with a budget of 48 pages for both caches,
// short of the two files' spans, so both caches evict.
func newViewStack(t *testing.T, hide bool) *viewStack {
	cfg := Config{RAM: 48 * pagecache.PageSize, ReadAhead: 16 << 10, DirtyWindowFuse: 64 << 10, DirtyWindowNative: 32 << 10}
	s := &viewStack{c: NewCntr(cfg)}
	if hide {
		s.c = newCntrHidingViews(cfg)
	}
	s.cli = vfs.NewClient(s.c.Top, vfs.Root())
	s.app, s.mem = vfs.NewClient(s.c.HostPC, vfs.Root()), vfs.NewClient(s.c.Host, vfs.Root())
	for i := range viewFiles {
		if err := s.open(i, vfs.ORdwr|vfs.OCreat); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range s.files {
			s.close(i)
		}
		s.c.Close()
	})
	return s
}

// open (re)opens file i through the top with flags.
func (s *viewStack) open(i int, flags vfs.OpenFlags) error {
	s.close(i)
	var err error
	if s.files[i], err = s.cli.Open(viewFiles[i], flags, 0o644); err != nil {
		return err
	}
	s.opened[i] = true
	return nil
}

func (s *viewStack) close(i int) {
	if s.opened[i] {
		s.files[i].Close()
		s.opened[i] = false
	}
}

// state renders what must not tell the two sides apart besides a step's
// result: what memfs stores of each file, both caches' counters and the
// clock's ledger.
func (s *viewStack) state() string {
	var b bytes.Buffer
	for _, name := range viewFiles {
		data, err := s.mem.ReadFile(name)
		fmt.Fprintf(&b, "%s: %v %x; ", name, vfs.ToErrno(err), data)
	}
	fmt.Fprintf(&b, "kernel %+v host %+v ledger %v", s.c.Kernel.Stats(), s.c.HostPC.Stats(), s.c.Clock.Ledger())
	return b.String()
}

// kernelStep is one step of a program on file i, returning what it saw.
type kernelStep struct {
	what string
	file int
	do   func(s *viewStack, i int) string
}

func kernelErr(what string, i int, do func(s *viewStack, i int) error) kernelStep {
	return kernelStep{what, i, func(s *viewStack, i int) string { return fmt.Sprint(vfs.ToErrno(do(s, i))) }}
}

func kernelWrite(i int, off int64, data []byte) kernelStep {
	return kernelStep{fmt.Sprintf("write %d@%d", len(data), off), i, func(s *viewStack, i int) string {
		n, err := s.files[i].WriteAt(data, off)
		return fmt.Sprint(n, vfs.ToErrno(err))
	}}
}

func kernelRead(i int, off int64, n int) kernelStep {
	return kernelStep{fmt.Sprintf("read %d@%d", n, off), i, func(s *viewStack, i int) string {
		b := make([]byte, n)
		got, err := s.files[i].ReadAt(b, off)
		return fmt.Sprint(got, vfs.ToErrno(err), b[:got])
	}}
}

// appWrite writes data at off of file i on the host, as the application
// does beside the attached session, and syncs it to memfs.
func appWrite(i int, off int64, data []byte) kernelStep {
	return kernelErr(fmt.Sprintf("host write %d@%d", len(data), off), i, func(s *viewStack, i int) error {
		f, err := s.app.Open(viewFiles[i], vfs.OWronly|vfs.OCreat, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.WriteAt(data, off); err != nil {
			return err
		}
		return f.Sync()
	})
}

// randomKernelStep draws the next step of a seeded program.
func randomKernelStep(rng *sim.Rand) kernelStep {
	const page = pagecache.PageSize
	i := rng.Intn(len(viewFiles))
	switch op := rng.Intn(21); {
	case op < 4: // whole pages, written over whatever is there
		data := make([]byte, (1+rng.Intn(6))*page)
		rng.Bytes(data)
		return kernelWrite(i, int64(rng.Intn(viewSpan/page))*page, data)
	case op < 8: // anywhere, of any length
		off, data := int64(rng.Intn(viewSpan)), make([]byte, 1+rng.Intn(3*page))
		rng.Bytes(data)
		return kernelWrite(i, off, data)
	case op < 13:
		return kernelRead(i, int64(rng.Intn(viewSpan)), 1+rng.Intn(8*page))
	case op < 15: // down or up, and often into a page
		size := int64(rng.Intn(viewSpan))
		return kernelErr(fmt.Sprintf("truncate to %d", size), i, func(s *viewStack, i int) error { return s.files[i].Truncate(size) })
	case op < 16:
		return kernelErr("fsync", i, func(s *viewStack, i int) error { return s.files[i].Sync() })
	case op < 17:
		return kernelErr("open O_TRUNC", i, func(s *viewStack, i int) error { return s.open(i, vfs.ORdwr|vfs.OCreat|vfs.OTrunc) })
	case op < 18:
		// The handle stays open on the orphan until the next reopen
		// creates the name again.
		return kernelErr("unlink", i, func(s *viewStack, i int) error { return s.cli.Remove(viewFiles[i]) })
	case op < 19:
		return kernelErr("close and reopen", i, func(s *viewStack, i int) error { return s.open(i, vfs.ORdwr|vfs.OCreat) })
	default:
		data := make([]byte, 1+rng.Intn(3*page))
		rng.Bytes(data)
		return appWrite(i, int64(rng.Intn(viewSpan)), data)
	}
}

// staleSizeProgram reads a page the kernel-side cache believes ends part
// way while memfs stores it whole: /a is 5000 bytes when the session
// truncates it to that length, the application then fills pages 1 and 2,
// and a read from 0 fetches a window of the 5000 bytes the kernel knows
// of, whose page 1 holds 904 of them. That page must not share the stored
// block, whose bytes past those 904 the cache was never sent: once a
// write into page 2 grows the size the kernel knows, page 1 reads the
// zeros it was filled with, on both sides.
func staleSizeProgram() []kernelStep {
	const page = pagecache.PageSize
	return []kernelStep{
		appWrite(0, 0, bytes.Repeat([]byte{'o'}, 5000)),
		kernelErr("truncate to 5000", 0, func(s *viewStack, i int) error { return s.files[i].Truncate(5000) }),
		appWrite(0, page, bytes.Repeat([]byte{'h'}, 2*page)),
		kernelRead(0, 0, 100),
		kernelWrite(0, 2*page, []byte{'x'}),
		kernelRead(0, page, page),
	}
}

// TestKernelViewDifferential is the oracle for kernel-side pages that
// share memfs's stored blocks across the FUSE connection: seeded programs
// of whole-page and partial writes, reads, truncates, O_TRUNC opens,
// unlinks with a handle open, fsyncs, reopens and the application's own
// writes on the host run on a Cntr stack whose connection forwards views
// and on one whose views are hidden (newCntrHidingViews), both short of
// memory. After every step its result, what memfs stores of each file,
// both caches' counters and the clock's ledger are equal on the two
// sides; and staleSizeProgram, a page the kernel knows only part of.
func TestKernelViewDifferential(t *testing.T) {
	seeds, steps := uint64(16), 150
	if testing.Short() || raceBuild() {
		seeds = 4
	}
	shared := 0
	run := func(name string, next func(step int) (kernelStep, bool)) {
		views, copies := newViewStack(t, false), newViewStack(t, true)
		for step := 0; ; step++ {
			st, ok := next(step)
			if !ok {
				return
			}
			at := fmt.Sprintf("%s step %d, %s of %s", name, step, st.what, viewFiles[st.file])
			if a, b := st.do(views, st.file), st.do(copies, st.file); a != b {
				t.Fatalf("%s: %.200s with views, %.200s without", at, a, b)
			}
			if a, b := views.state(), copies.state(); a != b {
				t.Fatalf("%s: with views\n %.400s\nwithout\n %.400s", at, a, b)
			}
			if _, n := copies.c.Kernel.Pages(); n != 0 {
				t.Fatalf("%s: %d kernel-side pages share bytes over a connection that offers none", at, n)
			}
			_, n := views.c.Kernel.Pages()
			shared += n
		}
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := sim.NewRand(seed)
		run(fmt.Sprintf("seed %d", seed), func(step int) (kernelStep, bool) {
			return randomKernelStep(rng), step < steps
		})
	}
	script := staleSizeProgram()
	run("stale size", func(step int) (kernelStep, bool) {
		if step == len(script) {
			return kernelStep{}, false
		}
		return script[step], true
	})
	if shared == 0 {
		t.Fatal("no kernel-side page shared memfs's bytes in any step: the differential compared two copying stacks")
	}
}

// TestCntrReadSharesOneCopy: a 1 MiB file read through Cntr.Top is held
// once, as memfs's stored blocks: no kernel-side page holds a buffer of
// its own, and a 1-byte write gives exactly one page its own. A mount
// that copies READ replies (SpliceRead off) keeps copies. memfs numbers
// /d, /d/x and /f 2 to 4 while CntrFS numbers /f 2, so a view asked of
// the CntrFS inode rather than memfs's finds none.
func TestCntrReadSharesOneCopy(t *testing.T) {
	const size = 1 << 20
	const pages = size / pagecache.PageSize
	data := make([]byte, size)
	sim.NewRand(9).Bytes(data)
	for _, splice := range []bool{true, false} {
		c := NewCntr(Config{Mount: mountWith(func(m *fuse.MountOptions) { m.SpliceRead = splice })})
		defer c.Close()
		host := vfs.NewClient(c.Host, vfs.Root())
		if err := host.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := host.WriteFile("/d/x", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := host.WriteFile("/f", data, 0o644); err != nil {
			t.Fatal(err)
		}
		cli := vfs.NewClient(c.Top, vfs.Root())
		f, err := cli.Open("/f", vfs.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got := make([]byte, size)
		if n, err := f.ReadAt(got, 0); n != size || err != nil || !bytes.Equal(got, data) {
			t.Fatalf("splice %v: read %d bytes, %v, equal %v", splice, n, err, bytes.Equal(got, data))
		}
		wantOwn, wantShared := 0, pages
		if !splice {
			wantOwn, wantShared = pages, 0
		}
		if own, shared := c.Kernel.Pages(); own != wantOwn || shared != wantShared {
			t.Fatalf("splice %v: after the read %d kernel-side pages hold a buffer of their own and %d share memfs's blocks, want %d and %d",
				splice, own, shared, wantOwn, wantShared)
		}
		if _, err := f.WriteAt([]byte{'!'}, 5*pagecache.PageSize+7); err != nil {
			t.Fatal(err)
		}
		if splice {
			wantOwn, wantShared = 1, pages-1
		}
		if own, shared := c.Kernel.Pages(); own != wantOwn || shared != wantShared {
			t.Fatalf("splice %v: after a 1-byte write %d pages own their bytes and %d share, want %d and %d",
				splice, own, shared, wantOwn, wantShared)
		}
	}
}
