package vfs_test

import (
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// TestChainOrderAndShortCircuit: interceptors run outermost-first, and an
// interceptor that skips next() short-circuits the inner layers and the
// filesystem itself.
func TestChainOrderAndShortCircuit(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	var order []string
	mark := func(name string) vfs.InterceptorFunc {
		return func(info *vfs.OpInfo, next func() error) error {
			order = append(order, name+">")
			err := next()
			order = append(order, "<"+name)
			return err
		}
	}
	chained := vfs.Chain(fs, mark("outer"), mark("inner"))
	if _, err := chained.Getattr(vfs.RootOp(), vfs.RootIno); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer>", "inner>", "<inner", "<outer"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	blocked := vfs.Chain(fs, vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		return vfs.EIO
	}))
	if _, err := blocked.Getattr(vfs.RootOp(), vfs.RootIno); vfs.ToErrno(err) != vfs.EIO {
		t.Fatalf("short-circuit: %v, want EIO", err)
	}
}

// TestChainNoInterceptorsIsIdentity: Chain with no layers returns the
// filesystem unchanged (no wrapper cost, optional interfaces intact).
func TestChainNoInterceptorsIsIdentity(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	if got := vfs.Chain(fs); got != vfs.FS(fs) {
		t.Fatal("Chain() must be the identity")
	}
}

// TestChainPreservesOptionalInterfaces: HandleExporter delegation keeps
// working through a chain over memfs.
func TestChainPreservesOptionalInterfaces(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := cli.Resolve("/f")
	if err != nil {
		t.Fatal(err)
	}
	chained := vfs.Chain(fs, vfs.NewStats())
	ex, ok := chained.(vfs.HandleExporter)
	if !ok {
		t.Fatal("chain must delegate HandleExporter")
	}
	hdl, err := ex.NameToHandle(r.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if ino, err := ex.OpenByHandle(hdl); err != nil || ino != r.Ino {
		t.Fatalf("OpenByHandle via chain: %d, %v", ino, err)
	}
	if s, ok := chained.(vfs.SyncerFS); !ok || s.SyncFS() != nil {
		t.Fatal("chain must delegate SyncFS")
	}
}

// TestStatsCountersComplete: the new counters (statfs, access, opendir,
// release) the old per-FS snapshots silently dropped are recorded.
func TestStatsCountersComplete(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	stats := vfs.NewStats()
	chained := vfs.Chain(fs, stats)
	cli := vfs.NewClient(chained, vfs.Root())
	op := cli.Op

	if err := cli.WriteFile("/f", []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, _ := cli.Resolve("/f")
	if _, err := chained.Statfs(op, vfs.RootIno); err != nil {
		t.Fatal(err)
	}
	if err := chained.Access(op, r.Ino, vfs.AccessRead); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	st := stats.Snapshot()
	if st.Statfs != 1 || st.Access != 1 {
		t.Fatalf("statfs/access = %d/%d, want 1/1", st.Statfs, st.Access)
	}
	if st.Opendirs == 0 || st.Readdirs == 0 {
		t.Fatalf("opendirs/readdirs = %d/%d, want > 0", st.Opendirs, st.Readdirs)
	}
	if st.Releases == 0 {
		t.Fatalf("releases = 0, want > 0 (file close + releasedir)")
	}
	if st.BytesWrit != 5 {
		t.Fatalf("bytes written = %d, want 5", st.BytesWrit)
	}
	var total vfs.OpStats
	total.Add(st)
	total.Add(st)
	if total.Statfs != 2*st.Statfs || total.Releases != 2*st.Releases {
		t.Fatal("OpStats.Add must accumulate the new counters")
	}
	stats.Reset()
	if s := stats.Snapshot(); s != (vfs.OpStats{}) {
		t.Fatalf("reset left %+v", s)
	}
}

// TestInterceptorSeesOutcome: an interceptor that runs code after next
// sees the operation's kind, name, request id and errno.
func TestInterceptorSeesOutcome(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	type seen struct {
		kind  vfs.OpKind
		name  string
		id    uint64
		errno vfs.Errno
	}
	var ops []seen
	probe := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		err := next()
		ops = append(ops, seen{info.Kind, info.Name, info.Op.ID, vfs.ToErrno(err)})
		return err
	})
	cli := vfs.NewClient(vfs.Chain(fs, probe), vfs.Root())
	if err := cli.WriteFile("/traced", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/missing"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("stat missing: %v", err)
	}
	last := ops[len(ops)-1]
	if last.kind != vfs.KindLookup || last.name != "missing" || last.errno != vfs.ENOENT {
		t.Fatalf("last operation seen = %+v", last)
	}
	if last.id == 0 {
		t.Fatal("operations must carry the request id")
	}
}

// TestFaultInjectorRules: error injection by kind, every-Nth selection,
// and latency injection through the Sleep hook.
func TestFaultInjectorRules(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	inj := vfs.NewFaultInjector(
		vfs.FaultRule{Kind: vfs.KindWrite, Errno: vfs.EIO, EveryN: 2},
	)
	var slept time.Duration
	inj.Sleep = func(d time.Duration) { slept += d }
	cli := vfs.NewClient(vfs.Chain(fs, inj), vfs.Root())
	f, err := cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatalf("1st write: %v (rule fires on every 2nd)", err)
	}
	if _, err := f.Write([]byte("b")); vfs.ToErrno(err) != vfs.EIO {
		t.Fatalf("2nd write: %v, want injected EIO", err)
	}
	if _, err := f.Write([]byte("c")); err != nil {
		t.Fatalf("3rd write: %v", err)
	}

	lat := vfs.NewFaultInjector(vfs.FaultRule{Kind: vfs.KindAny, Delay: time.Millisecond})
	lat.Sleep = func(d time.Duration) { slept += d }
	cli2 := vfs.NewClient(vfs.Chain(fs, lat), vfs.Root())
	if _, err := cli2.Stat("/"); err != nil {
		t.Fatal(err)
	}
	if slept == 0 {
		t.Fatal("latency rule did not sleep")
	}
}
