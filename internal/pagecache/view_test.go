package pagecache

import (
	"bytes"
	"fmt"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// hideViews is memfs behind a wrapper that offers the cache no views, so
// a cache over it copies every page: the reference a cache over memfs
// itself must not be told apart from.
type hideViews struct{ vfs.FS }

// viewSide is one side of TestViewDifferential: a cache over memfs, two
// files open through it read-write, and a second, read-only handle on
// each opened on memfs itself, which reads what memfs stores.
type viewSide struct {
	clock *sim.Clock
	cache *Cache
	cli   *vfs.Client
	mem   *vfs.Client
	files [2]vfs.File
	raw   [2]vfs.File
	// opened is whether files[i] and raw[i] are open.
	opened [2]bool
}

// viewFiles are the files the differential's programs work on, each
// within viewSpan bytes.
var viewFiles = [2]string{"/a", "/b"}

const viewSpan = 32 * PageSize

// newViewSide builds a side over a memfs of 40 blocks, less than the two
// files' spans, so writebacks run out of space, some part way; a budget
// of 12 pages keeps the cache evicting.
func newViewSide(t *testing.T, hide bool) *viewSide {
	back := memfs.New(memfs.Options{Capacity: 40 * PageSize})
	var below vfs.FS = back
	if hide {
		below = hideViews{back}
	}
	clock := sim.NewClock()
	cache := New(below, clock, sim.DefaultCostModel(), Options{
		KeepCache: true, Writeback: true, ReadAhead: 16 << 10,
		DirtyWindow: 48 << 10, MaxWriteSize: 64 << 10,
		Budget: NewMemBudget(12 * PageSize),
	})
	if (cache.viewer != nil) == hide {
		t.Fatalf("hide %v: the cache found viewer %v", hide, cache.viewer)
	}
	s := &viewSide{clock: clock, cache: cache, cli: vfs.NewClient(cache, vfs.Root()), mem: vfs.NewClient(back, vfs.Root())}
	for i := range viewFiles {
		if err := s.open(i, vfs.ORdwr|vfs.OCreat); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range s.files {
			s.close(i)
		}
	})
	return s
}

// open (re)opens file i through the cache with flags and its second
// handle on memfs.
func (s *viewSide) open(i int, flags vfs.OpenFlags) error {
	s.close(i)
	var err error
	if s.files[i], err = s.cli.Open(viewFiles[i], flags, 0o644); err != nil {
		return err
	}
	if s.raw[i], err = s.mem.Open(viewFiles[i], vfs.ORdonly, 0); err != nil {
		s.files[i].Close()
		return err
	}
	s.opened[i] = true
	return nil
}

// close closes file i's two handles if they are open.
func (s *viewSide) close(i int) {
	if s.opened[i] {
		s.files[i].Close()
		s.raw[i].Close()
		s.opened[i] = false
	}
}

// stored is what memfs holds of file i, read through the second handle.
func (s *viewSide) stored(i int) ([]byte, error) {
	attr, err := s.raw[i].Stat()
	if err != nil {
		return nil, err
	}
	b := make([]byte, attr.Size)
	n, err := s.raw[i].ReadAt(b, 0)
	return b[:n], err
}

// sharedPages counts the cache's pages that share memfs's bytes.
func (s *viewSide) sharedPages() int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	n := 0
	for _, f := range s.cache.files {
		for _, p := range f.all() {
			if p.shared {
				n++
			}
		}
	}
	return n
}

// viewStep is one step of a differential program: what it does to which
// file, and doing it on one side, which returns what the step observed.
// A scripted step may also name what both sides must observe.
type viewStep struct {
	what string
	file int
	do   func(s *viewSide, i int) string
	want string
}

func viewWrite(i int, off int64, data []byte) viewStep {
	return viewStep{what: fmt.Sprintf("write %d@%d", len(data), off), file: i, do: func(s *viewSide, i int) string {
		n, err := s.files[i].WriteAt(data, off)
		return fmt.Sprint(n, vfs.ToErrno(err))
	}}
}

func viewRead(i int, off int64, n int) viewStep {
	return viewStep{what: fmt.Sprintf("read %d@%d", n, off), file: i, do: func(s *viewSide, i int) string {
		b := make([]byte, n)
		got, err := s.files[i].ReadAt(b, off)
		return fmt.Sprint(got, vfs.ToErrno(err), b[:got])
	}}
}

func viewErr(what string, i int, do func(s *viewSide, i int) error) viewStep {
	return viewStep{what: what, file: i, do: func(s *viewSide, i int) string { return fmt.Sprint(vfs.ToErrno(do(s, i))) }}
}

func viewTruncate(i int, size int64) viewStep {
	return viewErr(fmt.Sprintf("truncate to %d", size), i, func(s *viewSide, i int) error { return s.files[i].Truncate(size) })
}

func viewFsync(i int) viewStep {
	return viewErr("fsync", i, func(s *viewSide, i int) error { return s.files[i].Sync() })
}

// randomViewStep draws the next step of a seeded program.
func randomViewStep(rng *sim.Rand) viewStep {
	i := rng.Intn(len(viewFiles))
	switch op := rng.Intn(20); {
	case op < 4: // whole pages, written over whatever is there
		data := make([]byte, (1+rng.Intn(6))*PageSize)
		rng.Bytes(data)
		return viewWrite(i, int64(rng.Intn(viewSpan/PageSize))*PageSize, data)
	case op < 9: // anywhere, of any length
		off, data := int64(rng.Intn(viewSpan)), make([]byte, 1+rng.Intn(3*PageSize))
		rng.Bytes(data)
		return viewWrite(i, off, data)
	case op < 14:
		return viewRead(i, int64(rng.Intn(viewSpan)), 1+rng.Intn(8*PageSize))
	case op < 16: // down or up, and often into a page
		return viewTruncate(i, int64(rng.Intn(viewSpan)))
	case op < 17:
		return viewFsync(i)
	case op < 18:
		return viewErr("open O_TRUNC", i, func(s *viewSide, i int) error {
			return s.open(i, vfs.ORdwr|vfs.OCreat|vfs.OTrunc)
		})
	case op < 19:
		// The handles stay open on the orphan until the next reopen
		// creates the name again.
		return viewErr("unlink", i, func(s *viewSide, i int) error { return s.cli.Remove(viewFiles[i]) })
	default:
		return viewErr("close and reopen", i, func(s *viewSide, i int) error { return s.open(i, vfs.ORdwr|vfs.OCreat) })
	}
}

// shortWritebackProgram runs a writeback out of space part way: /a holds
// blocks 0 and 2 around a hole, /b fills the rest of memfs, and pages 0
// to 2 of /a are written again and fsynced. memfs stores block 0, has no
// room for block 1 and reports the first page written, so the fsync
// reports ENOSPC, and page 2 is clean in the cache and holds bytes memfs
// never stored. A byte written into page 2 and fsynced then fits: page 2
// must keep its bytes, not share the stored block's older ones, as the
// read after it shows.
func shortWritebackProgram() []viewStep {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }
	fill := make([]byte, 38*PageSize)
	for k := range fill {
		fill[k] = byte(k / PageSize)
	}
	outOfRoom := viewFsync(0)
	outOfRoom.want = vfs.ENOSPC.Error()
	return []viewStep{
		viewWrite(0, 0, page('o')),
		viewWrite(0, 2*PageSize, page('o')),
		viewFsync(0),
		viewWrite(1, 0, fill),
		viewFsync(1),
		viewWrite(0, 0, bytes.Repeat([]byte{'n'}, 3*PageSize)),
		outOfRoom,
		viewRead(0, 0, 3*PageSize),
		viewWrite(0, 2*PageSize+5, []byte{'x'}),
		viewFsync(0),
		viewRead(0, 0, 3*PageSize),
	}
}

// TestViewDifferential is the oracle for pages that share memfs's stored
// blocks: programs of full-page and partial writes and overwrites, reads,
// truncates down and up, O_TRUNC opens, unlinks with a handle open,
// fsyncs and close+reopens run on a cache over memfs and on the same
// cache over memfs behind hideViews, a memfs too small for both files and
// a budget small enough to evict. After every step its result, memfs's
// bytes read through a second handle, the cache's counters and the
// virtual clock are equal on the two sides, and listed holds for both
// caches: no shared page is dirty, and each is its stored block. The
// programs are seeded, and shortWritebackProgram, a writeback cut short,
// whose fsync must report ENOSPC.
func TestViewDifferential(t *testing.T) {
	const seeds, steps = 24, 150
	shared := 0
	run := func(name string, next func(step int) (viewStep, bool)) {
		views, copies := newViewSide(t, false), newViewSide(t, true)
		sides := []*viewSide{views, copies}
		for step := 0; ; step++ {
			st, ok := next(step)
			if !ok {
				return
			}
			at := fmt.Sprintf("%s step %d, %s of %s", name, step, st.what, viewFiles[st.file])
			a, b := st.do(views, st.file), st.do(copies, st.file)
			if a != b {
				t.Fatalf("%s: %.200s with views, %.200s without", at, a, b)
			}
			if st.want != "" && a != st.want {
				t.Fatalf("%s: %.200s on both sides, want %s", at, a, st.want)
			}
			for j := range viewFiles {
				a, ea := views.stored(j)
				b, eb := copies.stored(j)
				if vfs.ToErrno(ea) != vfs.ToErrno(eb) || !bytes.Equal(a, b) {
					t.Fatalf("%s: memfs holds %d bytes of %s, %v, with views; %d, %v without; equal %v",
						at, len(a), viewFiles[j], ea, len(b), eb, bytes.Equal(a, b))
				}
			}
			for _, s := range sides {
				if err := listed(s.cache); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
			if a, b := views.cache.Stats(), copies.cache.Stats(); a != b {
				t.Fatalf("%s: counters %+v with views, %+v without", at, a, b)
			}
			if a, b := views.clock.Now(), copies.clock.Now(); a != b {
				t.Fatalf("%s: the clock reads %v with views, %v without", at, a, b)
			}
			if n := copies.sharedPages(); n != 0 {
				t.Fatalf("%s: %d pages share bytes over a backing that offers none", at, n)
			}
			shared += views.sharedPages()
		}
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := sim.NewRand(seed)
		run(fmt.Sprintf("seed %d", seed), func(step int) (viewStep, bool) {
			return randomViewStep(rng), step < steps
		})
	}
	script := shortWritebackProgram()
	run("short writeback", func(step int) (viewStep, bool) {
		if step == len(script) {
			return viewStep{}, false
		}
		return script[step], true
	})
	if shared == 0 {
		t.Fatal("no page shared memfs's bytes in any step: the differential compared two copying caches")
	}
}

// TestFsyncedFileSharesEveryPage: a 1 MiB file written and fsynced over
// memfs is cached as memfs's own blocks, with no page holding a buffer of
// its own, and a write into one of them copies that page alone.
func TestFsyncedFileSharesEveryPage(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30, MaxWriteSize: 1 << 20})
	data := make([]byte, 1<<20)
	sim.NewRand(5).Bytes(data)
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write(data); n != len(data) || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	count := func() (shared, own int) {
		for _, p := range e.cache.files[f.Ino()].all() {
			if p.shared {
				shared++
			} else {
				own++
			}
		}
		return shared, own
	}
	if shared, own := count(); shared != len(data)/PageSize || own != 0 {
		t.Fatalf("after fsync %d pages share memfs's blocks and %d hold a buffer of their own, want %d and 0",
			shared, own, len(data)/PageSize)
	}
	if _, err := f.WriteAt([]byte("x"), 5*PageSize+7); err != nil {
		t.Fatal(err)
	}
	if shared, own := count(); own != 1 || shared != len(data)/PageSize-1 {
		t.Fatalf("after a 1-byte write %d pages share and %d own their bytes, want %d and 1", shared, own, len(data)/PageSize-1)
	}
	if err := listed(e.cache); err != nil {
		t.Fatal(err)
	}
}
