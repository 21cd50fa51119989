package policy

import (
	"strings"
	"testing"

	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// workload is the recorded container behaviour: a small mixed
// metadata/data run under /data.
func workload(t *testing.T, fs vfs.FS) {
	t.Helper()
	cli := vfs.NewClient(fs, vfs.Root())
	cli.Op.PID = 7
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

// traceWorkload records the workload on a fresh Cntr stack and returns
// the collector and the tracer's raw entries.
func traceWorkload(t *testing.T) (*Collector, []vfs.TraceEntry) {
	t.Helper()
	col := NewCollector()
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	tr := vfs.NewTracer(4096)
	tr.Sink = col.Sink
	top := vfs.Chain(c.Top, tr)
	workload(t, top)
	col.JoinOriginStats(c.Server.OriginStats())
	return col, tr.Entries()
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
		if e.PID != 7 {
			t.Fatalf("entry not attributed to client pid 7: %+v", e)
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
	if !loaded.Allows(vfs.KindWrite, "/data/a") {
		t.Fatalf("profile should allow write under /data:\n%s", blob)
	}
	if loaded.Allows(vfs.KindCreate, "/") && !loaded.Allows(vfs.KindCreate, "/data/zzz") {
		t.Fatalf("create allowed at / but not under /data — rule generation inverted:\n%s", blob)
	}

	// Replay the same workload under enforcement: zero false denials.
	enf := NewEnforcer(loaded, false)
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
	enf := NewEnforcer(p, true)
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
	p.MaxWriteBytes = 4096 // below one payload file
	enf := NewEnforcer(p, false)
	c := stack.NewCntr(stack.Config{})
	defer c.Close()
	top := vfs.Chain(c.Top, enf)
	cli := vfs.NewClient(top, vfs.Root())
	if err := cli.Mkdir("/data", 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	// The ceiling trips once the accumulated bytes exceed it: the first
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
		if v.Reason == "write ceiling" {
			breached = true
		}
	}
	if !breached {
		t.Fatalf("no ceiling violation recorded: %+v", enf.Violations())
	}
}

func TestActivitySnapshotJoinsTransport(t *testing.T) {
	col, _ := traceWorkload(t)
	acts := col.Snapshot()
	var mine *Activity
	for i := range acts {
		if acts[i].Origin == 7 {
			mine = &acts[i]
		}
	}
	if mine == nil {
		t.Fatalf("no activity for origin 7: %+v", acts)
	}
	if mine.Transport == nil || mine.Transport.Ops == 0 {
		t.Fatalf("transport stats not joined: %+v", mine)
	}
	if mine.WriteBytes == 0 {
		t.Fatalf("no write bytes recorded: %+v", mine)
	}
	if _, ok := mine.Paths["/data"]; !ok {
		t.Fatalf("no /data path activity: %+v", mine.Paths)
	}
	if len(col.RenderJSON()) == 0 {
		t.Fatal("empty rendered JSON")
	}
}

// TestLoadNormalizesTrailingSlash: a hand-edited "/data/" prefix must
// behave like "/data" rather than silently matching nothing.
func TestLoadNormalizesTrailingSlash(t *testing.T) {
	p, err := Load([]byte(`{"rules":[{"prefix":"/data/","kinds":["read"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Allows(vfs.KindRead, "/data/file") {
		t.Fatalf("trailing-slash rule dead after load: %+v", p.Rules)
	}
}

// TestCollectorForgetPrunesPaths: a forget entry drops the learned
// ino→path binding, keeping the table bounded by live lookups.
func TestCollectorForgetPrunesPaths(t *testing.T) {
	col := NewCollector()
	col.Sink(vfs.TraceEntry{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "f", ResultIno: 9, PID: 1})
	col.Sink(vfs.TraceEntry{Kind: vfs.KindGetattr, Ino: 9, PID: 1})
	col.Sink(vfs.TraceEntry{Kind: vfs.KindForget, Ino: 9, PID: 1})
	col.Sink(vfs.TraceEntry{Kind: vfs.KindGetattr, Ino: 9, PID: 1})
	acts := col.Snapshot()
	if len(acts) != 1 {
		t.Fatalf("want one origin, got %+v", acts)
	}
	paths := acts[0].Paths
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
	if !p.Allows(vfs.KindWrite, "/data/x") || !p.Allows(vfs.KindSetxattr, "/data") {
		t.Fatalf("\"any\" rule does not match concrete kinds: %+v", p.Rules)
	}
	if p.Allows(vfs.KindWrite, "/elsewhere") {
		t.Fatal("\"any\" rule must stay scoped to its prefix")
	}
}

// TestRunsIsolatePathLearning: two mounts traced into one collector via
// separate runs must not cross-bind inode numbers.
func TestRunsIsolatePathLearning(t *testing.T) {
	col := NewCollector()
	runA, runB := col.NewRun(), col.NewRun()
	// Inode 9 is "/a" on mount A and "/b" on mount B.
	runA.Sink(vfs.TraceEntry{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "a", ResultIno: 9, PID: 1})
	runB.Sink(vfs.TraceEntry{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "b", ResultIno: 9, PID: 1})
	runA.Sink(vfs.TraceEntry{Kind: vfs.KindRead, Ino: 9, Bytes: 10, PID: 1})
	runB.Sink(vfs.TraceEntry{Kind: vfs.KindWrite, Ino: 9, Bytes: 20, PID: 1})
	paths := col.Snapshot()[0].Paths
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
	enf := NewEnforcer(&Profile{Rules: []Rule{{Prefix: "/", Kinds: []string{"lookup"}}}}, false)
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
	run.Sink(vfs.TraceEntry{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "old", ResultIno: 5, PID: 1})
	run.Sink(vfs.TraceEntry{Kind: vfs.KindLookup, Ino: 5, Name: "f", ResultIno: 6, PID: 1})
	run.Sink(vfs.TraceEntry{Kind: vfs.KindLookup, Ino: vfs.RootIno, Name: "dst", ResultIno: 7, PID: 1})
	run.Sink(vfs.TraceEntry{Kind: vfs.KindRename, Ino: vfs.RootIno, Name: "old",
		NewParentIno: 7, NewName: "new", PID: 1})
	run.Sink(vfs.TraceEntry{Kind: vfs.KindWrite, Ino: 6, Bytes: 9, PID: 1})
	paths := col.Snapshot()[0].Paths
	if pa, ok := paths["/dst/new/f"]; !ok || pa.Bytes != 9 {
		t.Fatalf("post-rename write not attributed to new path: %+v", paths)
	}
}
