package phoronix

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"cntr/internal/allocs"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// runNative runs b through RunOn on a fresh native stack at seed 42.
func runNative(b *Benchmark) error {
	n := stack.NewNative(stackConfig())
	_, _, err := RunOn(b, n.Top, n.Mem, n.Clock, n.Model, n.Disk, 42)
	return err
}

// TestRowRunAllocBudget pins the heap objects of the timed Run of three
// rows on the native stack: the path tables are built at package init,
// so what is left is the stack's own cost and the rows' buffers. The
// collector is off, so no pool the client recycles through is emptied
// midway. The pins are ceilings: a pool is per P, and memfs's inode map
// rehashes where its hash seed says, so a row's count moves by a few
// objects between runs (Meta-Storm 121–124, Compilebench: Read 41–48 and
// Dbench 35 over 30 runs at each of -cpu 1,4); each ceiling is about a
// tenth above the largest, where one path formatted per Meta-Storm pass
// would add 240.
func TestRowRunAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, b := range []*Benchmark{&MetaStorm, findBench("Compilebench: Read"), findBench("Dbench: 1 Clients")} {
		var objects uint64
		timed := *b
		timed.Run = func(ctx *Ctx) (int64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			work, err := b.Run(ctx)
			runtime.ReadMemStats(&after)
			objects = after.Mallocs - before.Mallocs
			return work, err
		}
		if err := runNative(&timed); err != nil {
			t.Fatal(err)
		}
		allocs.Check(t, b.Name, float64(objects))
	}
}

// TestRowRefusesStrayListing: a row that lists a directory acts on its
// path table, so a listing that disagrees with the table fails the row
// with the entry named, rather than the row opening whatever was listed.
// The stray is linked after f004.c and before the files from f005.c on
// are made again, so the listing, in link order, holds it where f005.c
// belongs.
func TestRowRefusesStrayListing(t *testing.T) {
	const stray = "/share/dir00/f005.c.orig"
	b := *findBench("Dbench: 1 Clients")
	prepare := b.Prepare
	b.Prepare = func(cli *vfs.Client) error {
		if err := prepare(cli); err != nil {
			return err
		}
		later := shareTree.files[0][5:]
		for _, f := range later {
			if err := cli.Remove(f); err != nil {
				return err
			}
		}
		for _, f := range append([]string{stray}, later...) {
			if err := cli.WriteFile(f, make([]byte, 8*kb), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	err := runNative(&b)
	if err == nil || !strings.Contains(err.Error(), `"f005.c.orig"`) {
		t.Fatalf("Dbench over a listing with %s: %v, want an error naming the entry", stray, err)
	}
	t.Log(err)
}

// failReads is an interceptor that, once armed, fails every Read with EIO.
type failReads struct{ armed atomic.Bool }

func (f *failReads) Intercept(info *vfs.OpInfo, next func() error) error {
	if info.Kind == vfs.KindRead && f.armed.Load() {
		return vfs.EIO
	}
	return next()
}

// TestRowsStopOnReadErrors: a read that fails is the row's error, not a
// number timed over work that did not happen. readAll, the warm-up of the
// streaming rows, stops at the first failed read and returns its errno,
// and reads to the end of a file otherwise; the four rows that read a
// file's head per open stop on a failed read in their timed Run.
func TestRowsStopOnReadErrors(t *testing.T) {
	t.Run("readAll", func(t *testing.T) {
		n := stack.NewNative(stackConfig())
		if err := vfs.NewClient(n.Top, vfs.Root()).WriteFile("/f", make([]byte, 300*kb), 0o644); err != nil {
			t.Fatal(err)
		}
		fail := &failReads{}
		ctx := &Ctx{Cli: vfs.NewClient(vfs.Chain(n.Top, fail), vfs.Root())}
		if err := readAll(ctx, "/f"); err != nil {
			t.Fatalf("readAll of a readable file: %v", err)
		}
		fail.armed.Store(true)
		if err := readAll(ctx, "/f"); vfs.ToErrno(err) != vfs.EIO {
			t.Fatalf("readAll with every read failing: %v, want EIO", err)
		}
	})
	for _, name := range []string{"Apachebench", "Compilebench: Compile", "Compilebench: Read", "Dbench: 1 Clients"} {
		t.Run(name, func(t *testing.T) {
			b := *findBench(name)
			fail := &failReads{}
			run := b.Run
			b.Run = func(ctx *Ctx) (int64, error) {
				fail.armed.Store(true)
				return run(ctx)
			}
			n := stack.NewNative(stackConfig())
			_, _, err := RunOn(&b, vfs.Chain(n.Top, fail), n.Mem, n.Clock, n.Model, n.Disk, 42)
			if vfs.ToErrno(err) != vfs.EIO {
				t.Fatalf("%s with every timed read failing: %v, want EIO", name, err)
			}
		})
	}
}
