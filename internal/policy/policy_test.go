package policy

import (
	"strings"
	"testing"

	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// mustEnforcer compiles p, failing the test on a refused profile.
func mustEnforcer(t *testing.T, p *Profile, audit bool) *Enforcer {
	t.Helper()
	enf, err := NewEnforcer(p, audit)
	if err != nil {
		t.Fatal(err)
	}
	return enf
}

// TestNewEnforcerRefusesWhatLoadRefuses: a profile built in code meets
// the window checks Load applies to one read from a file.
func TestNewEnforcerRefusesWhatLoadRefuses(t *testing.T) {
	for _, p := range []Profile{
		{WindowOps: 1 << 62},
		{WindowOps: CeilingWindowOps + 1, ReadBytesPerWindow: 1},
		{WindowOps: -1},
		{ReadBytesPerWindow: 1},
		{WindowOps: 8, WriteBytesPerWindow: -1},
	} {
		_, errEnf := NewEnforcer(&p, false)
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, errLoad := Load(b)
		if errEnf == nil || errLoad == nil || errEnf.Error() != errLoad.Error() {
			t.Errorf("%+v: NewEnforcer %v, Load %v; want the same refusal", p, errEnf, errLoad)
		}
	}
	if _, err := NewEnforcer(&Profile{WindowOps: CeilingWindowOps, ReadBytesPerWindow: 1}, false); err != nil {
		t.Fatalf("the largest window: %v", err)
	}
}

// workload is the recorded container behaviour: a small mixed
// metadata/data run under /data.
func workload(t *testing.T, fs vfs.FS) {
	t.Helper()
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.Mkdir("/data", 0o755); err != nil {
		t.Fatalf("mkdir /data: %v", err)
	}
	payload := []byte(strings.Repeat("x", 8192))
	for _, name := range []string{"/data/a", "/data/b"} {
		if err := cli.WriteFile(name, payload, 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	got, err := cli.ReadFile("/data/a")
	if err != nil || len(got) != len(payload) {
		t.Fatalf("read /data/a: %d bytes, err %v", len(got), err)
	}
	if _, err := cli.ReadDir("/data"); err != nil {
		t.Fatalf("readdir /data: %v", err)
	}
	if err := cli.Remove("/data/b"); err != nil {
		t.Fatalf("unlink /data/b: %v", err)
	}
}

// seenOp is what a probe around a Run saw of one operation.
type seenOp struct {
	Kind  vfs.OpKind
	Ino   vfs.Ino
	Bytes int
}

// traceWorkload records the workload on a fresh Cntr stack through a Run
// and returns the collector and what the Run was handed.
func traceWorkload(t *testing.T) (*Collector, []seenOp) {
	t.Helper()
	col := NewCollector()
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	run := col.NewRun()
	var seen []seenOp
	top := vfs.Chain(c.Top, vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		err := run.Intercept(info, next)
		seen = append(seen, seenOp{Kind: info.Kind, Ino: info.Ino, Bytes: info.Bytes})
		return err
	}))
	workload(t, top)
	return col, seen
}

// record passes one synthetic operation that ends with errno through r.
func record(r *Run, errno vfs.Errno, info vfs.OpInfo) {
	info.Op = vfs.RootOp()
	r.Intercept(&info, func() error {
		if errno == vfs.OK {
			return nil
		}
		return errno
	})
}

func TestTraceAttributesDataOps(t *testing.T) {
	_, entries := traceWorkload(t)
	var reads, writes int
	for _, e := range entries {
		switch e.Kind {
		case vfs.KindRead:
			reads++
			if e.Ino == 0 {
				t.Fatalf("read entry with zero inode: %+v", e)
			}
		case vfs.KindWrite:
			writes++
			if e.Ino == 0 {
				t.Fatalf("write entry with zero inode: %+v", e)
			}
			if e.Bytes == 0 {
				t.Fatalf("write entry with zero bytes: %+v", e)
			}
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("expected read and write entries, got %d/%d", reads, writes)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	col, _ := traceWorkload(t)
	p := col.Profile(GenOptions{})

	// The profile must survive JSON serialization.
	blob, err := p.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	loaded, err := Load(blob)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !loaded.Compile().Allows(vfs.KindWrite, "/data/a") {
		t.Fatalf("profile should allow write under /data:\n%s", blob)
	}
	if loaded.Compile().Allows(vfs.KindCreate, "/") && !loaded.Compile().Allows(vfs.KindCreate, "/data/zzz") {
		t.Fatalf("create allowed at / but not under /data — rule generation inverted:\n%s", blob)
	}

	// Replay the same workload under enforcement: zero false denials.
	enf := mustEnforcer(t, loaded, false)
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	top := vfs.Chain(c.Top, enf)
	workload(t, top)
	if n := enf.Denials(); n != 0 {
		t.Fatalf("replay denied %d operations: %+v", n, enf.Violations())
	}

	// An operation outside the profile is denied with EACCES.
	cli := vfs.NewClient(top, vfs.Root())
	if err := cli.WriteFile("/evil", []byte("x"), 0o644); err != vfs.EACCES {
		t.Fatalf("off-profile create: got %v, want EACCES", err)
	}
	if enf.Denials() == 0 {
		t.Fatal("denial not counted")
	}
}

func TestAuditModeRecordsWithoutDenying(t *testing.T) {
	col, _ := traceWorkload(t)
	p := col.Profile(GenOptions{})
	enf := mustEnforcer(t, p, true)
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	top := vfs.Chain(c.Top, enf)
	workload(t, top)
	cli := vfs.NewClient(top, vfs.Root())
	if err := cli.WriteFile("/evil", []byte("x"), 0o644); err != nil {
		t.Fatalf("audit mode must not deny: %v", err)
	}
	if enf.Denials() != 0 {
		t.Fatalf("audit mode denied %d operations", enf.Denials())
	}
	if enf.Audited() == 0 {
		t.Fatal("audit mode recorded no violations")
	}
	found := false
	for _, v := range enf.Violations() {
		if v.Kind == vfs.KindCreate && v.Path == "/evil" && !v.Denied {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected recorded create violation for /evil: %+v", enf.Violations())
	}
}

func TestWriteCeiling(t *testing.T) {
	col, _ := traceWorkload(t)
	p := col.Profile(GenOptions{})
	p.WindowOps, p.WriteBytesPerWindow = CeilingWindowOps, 4096 // below one payload file
	enf := mustEnforcer(t, p, false)
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	top := vfs.Chain(c.Top, enf)
	cli := vfs.NewClient(top, vfs.Root())
	if err := cli.Mkdir("/data", 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	// The ceiling trips once the bytes in the window reach it: the first
	// write lands (8 KiB > 4 KiB cap), the next write is denied.
	big := []byte(strings.Repeat("y", 8<<10))
	if err := cli.WriteFile("/data/a", big, 0o644); err != nil {
		t.Fatalf("first write under ceiling accounting: %v", err)
	}
	if err := cli.WriteFile("/data/b", big, 0o644); err != vfs.EACCES {
		t.Fatalf("ceiling write: got %v, want EACCES", err)
	}
	breached := false
	for _, v := range enf.Violations() {
		if v.Reason == "write rate" {
			breached = true
		}
	}
	if !breached {
		t.Fatalf("no ceiling violation recorded: %+v", enf.Violations())
	}
}

func TestActivitySnapshotJoinsTransport(t *testing.T) {
	col, _ := traceWorkload(t)
	mine := col.Snapshot()
	if mine.WriteBytes == 0 {
		t.Fatalf("no write bytes recorded: %+v", mine)
	}
	if _, ok := mine.Paths["/data"]; !ok {
		t.Fatalf("no /data path activity: %+v", mine.Paths)
	}
}

// TestLoadNormalizesTrailingSlash: a hand-edited "/data/" prefix must
// behave like "/data" rather than silently matching nothing.
func TestLoadNormalizesTrailingSlash(t *testing.T) {
	p, err := Load([]byte(`{"rules":[{"prefix":"/data/","kinds":["read"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Compile().Allows(vfs.KindRead, "/data/file") {
		t.Fatalf("trailing-slash rule dead after load: %+v", p.Rules)
	}
}

// TestCollectorForgetPrunesPaths: a forget drops the learned
// ino→path binding, keeping the table bounded by live lookups.
func TestCollectorForgetPrunesPaths(t *testing.T) {
	col := NewCollector()
	run := col.NewRun()
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "f", ResultIno: 9})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindGetattr, Ino: 9})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindForget, Ino: 9})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindGetattr, Ino: 9})
	paths := col.Snapshot().Paths
	if pa, ok := paths["/f"]; !ok || pa.Ops != 2 {
		// The getattr before the forget plus the forget itself anchor
		// at the learned path.
		t.Fatalf("pre-forget ops not attributed to /f: %+v", paths)
	}
	if pa, ok := paths[unknownAnchor]; !ok || pa.Ops != 1 {
		t.Fatalf("post-forget op should anchor unknown: %+v", paths)
	}
}

// TestLoadAnyKindWildcard: the "any" kind name in a hand-edited profile
// must act as a wildcard, not a dead bit.
func TestLoadAnyKindWildcard(t *testing.T) {
	p, err := Load([]byte(`{"rules":[{"prefix":"/data","kinds":["any"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Compile().Allows(vfs.KindWrite, "/data/x") || !p.Compile().Allows(vfs.KindSetxattr, "/data") {
		t.Fatalf("\"any\" rule does not match concrete kinds: %+v", p.Rules)
	}
	if p.Compile().Allows(vfs.KindWrite, "/elsewhere") {
		t.Fatal("\"any\" rule must stay scoped to its prefix")
	}
}

// TestRunsIsolatePathLearning: two mounts traced into one collector via
// separate runs must not cross-bind inode numbers.
func TestRunsIsolatePathLearning(t *testing.T) {
	col := NewCollector()
	runA, runB := col.NewRun(), col.NewRun()
	// Inode 9 is "/a" on mount A and "/b" on mount B.
	record(runA, vfs.OK, vfs.OpInfo{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "a", ResultIno: 9})
	record(runB, vfs.OK, vfs.OpInfo{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "b", ResultIno: 9})
	record(runA, vfs.OK, vfs.OpInfo{Kind: vfs.KindRead, Ino: 9, Bytes: 10})
	record(runB, vfs.OK, vfs.OpInfo{Kind: vfs.KindWrite, Ino: 9, Bytes: 20})
	paths := col.Snapshot().Paths
	if pa, ok := paths["/a"]; !ok || pa.Bytes != 10 {
		t.Fatalf("mount A read misattributed: %+v", paths)
	}
	if pb, ok := paths["/b"]; !ok || pb.Bytes != 20 {
		t.Fatalf("mount B write misattributed: %+v", paths)
	}
}

// TestViolationLogBounded: denials past the violation log's cap still
// advance the denial counter, one per operation, but the log stays at
// its cap.
func TestViolationLogBounded(t *testing.T) {
	enf := mustEnforcer(t, &Profile{Rules: []Rule{{Prefix: "/", Kinds: []string{"lookup"}}}}, false)
	n := maxViolations + 37
	for i := 0; i < n; i++ {
		info := vfs.OpInfo{Kind: vfs.KindWrite, Op: vfs.RootOp(), Ino: vfs.RootIno}
		if err := enf.Intercept(&info, func() error { t.Fatal("a denied write reached the filesystem"); return nil }); err != vfs.EACCES {
			t.Fatalf("off-profile write %d: %v, want EACCES", i, err)
		}
	}
	if got := enf.Denials(); got != int64(n) {
		t.Fatalf("denials = %d, want %d", got, n)
	}
	if got := len(enf.Violations()); got != maxViolations {
		t.Fatalf("violation log = %d entries, want cap %d", got, maxViolations)
	}
}

// TestRenameRebindsSubtree: after a successful rename flows past the
// collector, activity is attributed to the container's current paths.
func TestRenameRebindsSubtree(t *testing.T) {
	col := NewCollector()
	run := col.NewRun()
	// /old (dir, ino 5) containing f (ino 6); /dst (dir, ino 7).
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "old", ResultIno: 5})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindLookup, Ino: 5, Name: "f", ResultIno: 6})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "dst", ResultIno: 7})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindRename, Ino: vfs.RootIno, Name: "old",
		NewParentIno: 7, NewName: "new"})
	record(run, vfs.OK, vfs.OpInfo{Kind: vfs.KindWrite, Ino: 6, Bytes: 9})
	paths := col.Snapshot().Paths
	if pa, ok := paths["/dst/new/f"]; !ok || pa.Bytes != 9 {
		t.Fatalf("post-rename write not attributed to new path: %+v", paths)
	}
}

// TestEnforcerFollowsPaths: the enforcer decides at the path its table
// learned from the operations that went past it — a lookup's result, a
// rename's destination — and forgets a binding the kernel forgot.
func TestEnforcerFollowsPaths(t *testing.T) {
	enf := mustEnforcer(t, &Profile{Rules: []Rule{
		{Prefix: "/", Kinds: []string{"lookup", "rename"}},
		{Prefix: "/old/f", Kinds: []string{"read"}},
		{Prefix: "/dst/new", Kinds: []string{"write"}},
	}}, false)
	op := func(info vfs.OpInfo) error {
		info.Op = vfs.RootOp()
		return enf.Intercept(&info, func() error { return nil })
	}
	// /old (ino 5) holding f (ino 6); /dst (ino 7).
	for _, l := range []vfs.OpInfo{
		{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "old", ResultIno: 5},
		{Kind: vfs.KindLookup, Ino: 5, Name: "f", ResultIno: 6},
		{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "dst", ResultIno: 7},
	} {
		if err := op(l); err != nil {
			t.Fatalf("lookup %q: %v", l.Name, err)
		}
	}
	if err := op(vfs.OpInfo{Kind: vfs.KindRead, Ino: 6}); err != nil {
		t.Fatalf("read of /old/f, learned from its lookup: %v", err)
	}
	if err := op(vfs.OpInfo{Kind: vfs.KindRename, Ino: vfs.RootIno, Name: "old", NewParentIno: 7, NewName: "new"}); err != nil {
		t.Fatalf("rename /old → /dst/new: %v", err)
	}
	if err := op(vfs.OpInfo{Kind: vfs.KindWrite, Ino: 6}); err != nil {
		t.Fatalf("write of /dst/new/f after the rename: %v", err)
	}
	if err := op(vfs.OpInfo{Kind: vfs.KindRead, Ino: 6}); err != vfs.EACCES {
		t.Fatalf("read at the renamed-away /old/f: %v, want EACCES", err)
	}
	if err := op(vfs.OpInfo{Kind: vfs.KindForget, Ino: 6}); err != nil {
		t.Fatalf("forget: %v", err)
	}
	if err := op(vfs.OpInfo{Kind: vfs.KindWrite, Ino: 6}); err != vfs.EACCES {
		t.Fatalf("write of a forgotten inode: %v, want EACCES (its path is unknown)", err)
	}
}

// TestLoadRejectsLifetimeCeilings: the version-1 lifetime ceilings are
// enforced by nothing, so a profile carrying one is refused, by name,
// rather than loaded without it.
func TestLoadRejectsLifetimeCeilings(t *testing.T) {
	for _, field := range []string{"max_read_bytes", "max_write_bytes"} {
		_, err := Load([]byte(`{"version":1,"rules":[],"` + field + `":4096}`))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Load of a profile with %s: %v, want an error naming it", field, err)
		}
	}
}
