package vfs_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// lateReads collects what a trace shows of a layer that read a frame or
// an Op after its call had returned, under poison: the sentinel's id,
// its 0xDB names, or the EINTR its cancelled context answers.
type lateReads struct {
	mu    sync.Mutex
	found []string
	seen  int
}

func (l *lateReads) sink(e vfs.TraceEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	if e.ID == ^uint64(0) || e.Errno == vfs.EINTR || e.Kind == vfs.KindAny ||
		strings.Contains(e.Name, "\xDB") || strings.Contains(e.NewName, "\xDB") {
		l.found = append(l.found, fmt.Sprintf("%+v", e))
	}
}

func (l *lateReads) check(t *testing.T, where string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == 0 {
		t.Errorf("%s: the tracer saw nothing", where)
	}
	if len(l.found) > 0 {
		t.Errorf("%s: %d of %d trace entries carry a recycled frame's or Op's sentinel, first: %s",
			where, len(l.found), l.seen, l.found[0])
	}
}

func (l *lateReads) tracer() *vfs.Tracer {
	tr := vfs.NewTracer(1)
	tr.Sink = l.sink
	return tr
}

// TestChainRecyclingUnderPoison runs the chain and the client with every
// released frame and Op overwritten, so that anything which kept an
// OpInfo, a next or a client-minted *Op past its call would show.
func TestChainRecyclingUnderPoison(t *testing.T) {
	vfs.PoisonRecycled(true)
	defer vfs.PoisonRecycled(false)

	t.Run("observations", func(t *testing.T) { compareChainGolden(t, chainObservations()) })

	// Eight goroutines share one Client and one File on a CntrFS mount
	// with four server threads, traced above the kernel-side cache and
	// below it (where its readahead and writeback reach the connection).
	t.Run("shared client", func(t *testing.T) {
		var top, below lateReads
		mount := fuse.DefaultMountOptions()
		mount.ServerThreads = 4
		c := stack.NewCntr(stack.Config{Mount: mount, BelowCache: []vfs.Interceptor{below.tracer()}})
		defer c.Close()
		cli := vfs.NewClient(vfs.Chain(c.Top, vfs.NewStats(), top.tracer()), vfs.Root())

		const workers, region, rounds = 8, 64 << 10, 40
		if err := cli.MkdirAll("/shared/dir", 0o755); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, workers*region)
		for i := range want {
			want[i] = byte(i / region)
		}
		if err := cli.WriteFile("/shared/dir/file", want, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := cli.Open("/shared/dir/file", vfs.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mine := want[w*region : (w+1)*region]
				buf := make([]byte, region)
				for i := 0; i < rounds; i++ {
					off := int64(w * region)
					if n, err := f.ReadAt(buf, off); err != nil || !bytes.Equal(buf[:n], mine[:n]) || n == 0 {
						t.Errorf("worker %d round %d: ReadAt = %d, %v, or another region's bytes", w, i, n, err)
						return
					}
					if n, err := f.ReadAt(buf[:4<<10], off); err != nil || !bytes.Equal(buf[:n], mine[:n]) {
						t.Errorf("worker %d round %d: page ReadAt = %d, %v", w, i, n, err)
						return
					}
					if _, err := f.WriteAt(mine[:8<<10], off+int64(i%4)*(8<<10)); err != nil {
						t.Errorf("worker %d round %d: WriteAt: %v", w, i, err)
						return
					}
					if attr, err := cli.Stat("/shared/dir/file"); err != nil || attr.Size != int64(len(want)) {
						t.Errorf("worker %d round %d: Stat = %d bytes, %v", w, i, attr.Size, err)
						return
					}
					if _, err := cli.Stat("/shared/dir/missing"); vfs.ToErrno(err) != vfs.ENOENT {
						t.Errorf("worker %d round %d: Stat of a missing file: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := cli.ReadFile("/shared/dir/file"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read-back: %d bytes, %v; want the %d written", len(got), err, len(want))
		}
		top.check(t, "above the cache")
		below.check(t, "below the cache")
	})

	// A chaos pass: every third operation is answered by the injector, so
	// frames leave the chain from every depth.
	t.Run("chaos", func(t *testing.T) {
		var outer, inner lateReads
		c := stack.NewCntr(stack.Config{})
		defer c.Close()
		inj := vfs.NewFaultInjector(vfs.FaultRule{Kind: vfs.KindAny, Errno: vfs.EIO, EveryN: 3})
		cli := vfs.NewClient(vfs.Chain(c.Top, outer.tracer(), inj, inner.tracer()), vfs.Root())
		injected := 0
		for i := 0; i < 300; i++ {
			path := fmt.Sprintf("/chaos%d", i%7)
			for _, err := range []error{
				cli.WriteFile(path, []byte("payload"), 0o644),
				func() error { _, err := cli.Stat(path); return err }(),
				func() error { _, err := cli.ReadFile(path); return err }(),
				func() error { _, err := cli.ReadDir("/"); return err }(),
				cli.Remove(path),
			} {
				switch vfs.ToErrno(err) {
				case vfs.EIO:
					injected++
				case vfs.OK, vfs.ENOENT, vfs.EEXIST:
				default:
					t.Fatalf("round %d on %s: %v, which neither the injector nor the filesystem answers", i, path, err)
				}
			}
		}
		if injected == 0 {
			t.Error("the injector never fired")
		}
		outer.check(t, "outside the injector")
		inner.check(t, "inside the injector")
	})
}

// TestChainRecycledFrameIsWiped: what a call lent its interceptors reads
// as nothing once the call has returned — a deliberate late reader finds
// no request, no name and no credential to act under — and under poison
// as the sentinel. A frame whose call panicked is not recycled at all.
func TestChainRecycledFrameIsWiped(t *testing.T) {
	var keptInfo *vfs.OpInfo
	var keptOp *vfs.Op
	var shown vfs.OpInfo // what the outermost interceptor was handed
	var depths []int
	panicNext := false
	mark := func(depth int) vfs.Interceptor {
		return vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
			depths = append(depths, depth)
			if depth == 0 {
				shown = *info
			}
			if depth == 1 {
				keptInfo, keptOp = info, info.Op
				if panicNext {
					info.Bytes, info.ResultIno = 99, 99
					panic("interceptor bug")
				}
				if info.Name == "short" {
					return vfs.EIO
				}
			}
			return next()
		})
	}
	fs := vfs.Chain(memfs.New(memfs.Options{}), mark(0), mark(1))
	cli := vfs.NewClient(fs, vfs.User(1000, 1000))

	defer vfs.PoisonRecycled(false)
	for _, poisoned := range []bool{false, true} {
		vfs.PoisonRecycled(poisoned)
		if _, err := cli.Stat("/"); err != nil {
			t.Fatal(err)
		}
		switch {
		case !poisoned && (*keptInfo != vfs.OpInfo{} || keptOp.Cred != nil || keptOp.ID != 0 || keptOp.PID != 0):
			t.Errorf("after the call: info %+v, op %+v; want both wiped", *keptInfo, *keptOp)
		case poisoned && (keptInfo.Op == nil || keptInfo.Op.ID != ^uint64(0) || keptInfo.Name != "\xDB\xDB\xDB\xDB" ||
			keptOp.ID != ^uint64(0) || keptOp.Err() != vfs.EINTR):
			t.Errorf("after the call, poisoned: info %+v, op %+v; want the sentinel", *keptInfo, *keptOp)
		}
	}
	vfs.PoisonRecycled(false)

	// A short-circuited call returns nothing of the call before it.
	if _, err := fs.Lookup(vfs.RootOp(), vfs.RootIno, "."); err != nil {
		t.Fatal(err)
	}
	if attr, err := fs.Lookup(vfs.RootOp(), vfs.RootIno, "short"); vfs.ToErrno(err) != vfs.EIO || attr != (vfs.Attr{}) {
		t.Errorf("short-circuited lookup = %+v, %v; want no attributes and EIO", attr, err)
	}

	// A panic at depth 1 leaves its frame mid-chain with results half
	// written; every call after it still starts at depth 0 on a clean one.
	panicNext = true
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the interceptor's panic did not reach the caller")
			}
		}()
		fs.Getattr(vfs.RootOp(), vfs.RootIno)
	}()
	panicNext = false
	for i := 0; i < 64; i++ {
		depths = depths[:0]
		if attr, err := fs.Lookup(vfs.RootOp(), vfs.RootIno, "short"); vfs.ToErrno(err) != vfs.EIO || attr != (vfs.Attr{}) {
			t.Fatalf("call %d after the panic: %+v, %v", i, attr, err)
		}
		if len(depths) != 2 || depths[0] != 0 || depths[1] != 1 {
			t.Fatalf("call %d after the panic entered the interceptors at depths %v, want [0 1]", i, depths)
		}
		if shown.Bytes != 0 || shown.ResultIno != 0 || shown.Name != "short" {
			t.Fatalf("call %d after the panic was shown the panicked call's info: %+v", i, shown)
		}
	}
}
