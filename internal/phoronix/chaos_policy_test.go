package phoronix

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/policy"
	"cntr/internal/vfs"
)

// TestChaosComposesWithPolicy is the composition check from the roadmap:
// replaying the suite with injected faults *under an enforced profile*
// must route every injected errno into the collector's histogram buckets
// while (a) never registering a policy denial — faults are not policy
// violations — and (b) never mutating the shape of the profile a
// recording of the chaotic run would generate: no new rule prefixes, no
// new kinds, because an injected errno changes an operation's outcome,
// not its existence.
func TestChaosComposesWithPolicy(t *testing.T) {
	// The suite replayed under chaos (latency + injected errnos) with its
	// clean recording's profile enforced, into a second collector.
	ec := pass(t, enforceChaos)
	prof, chaotic := ec.prof, ec.chaotic
	if len(prof.Rules) == 0 {
		t.Fatal("clean trace generated no rules")
	}
	aborted := 0
	for _, r := range ec.rows {
		if r.Denials != 0 || r.Audited != 0 {
			t.Fatalf("%s: injected faults registered as policy violations: denials=%d audited=%d",
				r.Name, r.Denials, r.Audited)
		}
		if r.Err != nil {
			aborted++
		}
	}

	// The injected errnos landed in histogram buckets.
	if b := errnoBuckets(chaotic); b["read:input/output_error"]+b["write:no_space_left_on_device"] == 0 {
		t.Fatalf("no injected errnos reached the histograms (aborted=%d of %d benchmarks)",
			aborted, len(ec.rows))
	}

	// Rule shape: the profile generated from the chaotic recording must
	// be contained in the clean one — same prefixes, no new kinds. (The
	// chaotic run can be a strict subset: a benchmark aborted by an
	// injected errno stops contributing anchors.)
	cleanRules := make(map[string]map[string]bool, len(prof.Rules))
	for _, r := range prof.Rules {
		kinds := make(map[string]bool, len(r.Kinds))
		for _, k := range r.Kinds {
			kinds[k] = true
		}
		cleanRules[r.Prefix] = kinds
	}
	chaosProf := chaotic.Profile(policy.GenOptions{})
	for _, r := range chaosProf.Rules {
		kinds, ok := cleanRules[r.Prefix]
		if !ok {
			t.Errorf("chaos run invented rule prefix %q", r.Prefix)
			continue
		}
		for _, k := range r.Kinds {
			if !kinds[k] {
				t.Errorf("chaos run added kind %q under %q", k, r.Prefix)
			}
		}
	}
	cleanAny := make(map[string]bool, len(prof.AnyPathKinds))
	for _, k := range prof.AnyPathKinds {
		cleanAny[k] = true
	}
	for _, k := range chaosProf.AnyPathKinds {
		if !cleanAny[k] {
			t.Errorf("chaos run added any-path kind %q", k)
		}
	}
}

// TestRunRefusesUntrackableWindow: Setup.Enforce with a window Load
// would refuse fails the row with Load's error before the workload runs.
// Before, an auditing enforcer let the first data operation through and
// panicked allocating the window while holding its lock, so a workload
// that closes a file on its way out then deadlocked; this one does
// nothing but note that it ran.
func TestRunRefusesUntrackableWindow(t *testing.T) {
	prof := &policy.Profile{WindowOps: 1 << 62, ReadBytesPerWindow: 1 << 20}
	ran := false
	b := &Benchmark{Name: "untrackable window", Run: func(*Ctx) (int64, error) {
		ran = true
		return 0, nil
	}}
	r := Run(b, Setup{Enforce: prof, Audit: true})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "window_ops") {
		t.Fatalf("row error = %v, want window_ops refused", r.Err)
	}
	if ran {
		t.Fatal("a refused row ran its workload")
	}
}

// gdbSize is the size of the tool seedTools puts on the served
// filesystem.
const gdbSize = 5000

// seedTools puts a config file and a tool on the filesystem a row's
// mount serves, as a fat container's tools side holds them.
func seedTools(cli *vfs.Client) error {
	if err := cli.MkdirAll("/etc", 0o755); err != nil {
		return err
	}
	if err := cli.WriteFile("/etc/gdbinit", []byte("set pagination off\n"), 0o644); err != nil {
		return err
	}
	if err := cli.MkdirAll("/usr/bin", 0o755); err != nil {
		return err
	}
	return cli.WriteFile("/usr/bin/gdb", make([]byte, gdbSize), 0o755)
}

// TestRunPolicySeesEveryOpen: the policy interceptors sit where a
// syscall enters the mount, above the kernel-side cache, so they see
// every open even though the mount opens regular files without a
// message to the server once the server has answered one OPEN with
// ENOSYS (fuse.MountOptions NoOpen): the recording Run records the open
// of a regular file, and the enforcer denies one whose lookup it allows.
func TestRunPolicySeesEveryOpen(t *testing.T) {
	rec := policy.NewCollector()
	traced := Run(&Benchmark{Name: "read gdbinit twice, stat gdb", Prepare: seedTools, Run: func(ctx *Ctx) (int64, error) {
		for range 2 {
			if _, err := ctx.Cli.ReadFile("/etc/gdbinit"); err != nil {
				return 0, err
			}
		}
		_, err := ctx.Cli.Stat("/usr/bin/gdb")
		return 1, err
	}}, Setup{Record: rec})
	if traced.Err != nil {
		t.Fatal(traced.Err)
	}
	if n := traced.frames[fuse.OpOpen]; n != 1 {
		t.Fatalf("two opens sent %d OPEN frames, want the one the server answers ENOSYS", n)
	}
	p := rec.Profile(policy.GenOptions{})
	if m := p.Compile(); !m.Allows(vfs.KindOpen, "/etc/gdbinit") {
		t.Fatalf("the traced read of /etc/gdbinit recorded no open: %+v", p.Rules)
	} else if !m.Allows(vfs.KindLookup, "/usr/bin/gdb") || m.Allows(vfs.KindOpen, "/usr/bin/gdb") {
		t.Fatalf("the profile should allow looking /usr/bin/gdb up and not opening it: %+v", p.Rules)
	}

	r := Run(&Benchmark{Name: "read gdbinit, open gdb", Prepare: seedTools, Run: func(ctx *Ctx) (int64, error) {
		if _, err := ctx.Cli.ReadFile("/etc/gdbinit"); err != nil {
			return 0, fmt.Errorf("on-profile read: %w", err)
		}
		f, err := ctx.Cli.Open("/usr/bin/gdb", vfs.ORdonly, 0)
		if err == nil {
			f.Close()
		}
		return 1, err
	}}, Setup{Enforce: p})
	if !errors.Is(r.Err, vfs.EACCES) {
		t.Fatalf("off-profile open: %v, want EACCES", r.Err)
	}
	if v := r.Violations; r.Denials != 1 || len(v) != 1 || v[0].Kind != vfs.KindOpen || !v[0].Denied {
		t.Fatalf("denials %d, violations %+v; want the one open denied", r.Denials, v)
	}
}

// TestRunReadCeilingCountsCacheHits: a byte ceiling counts what the
// workload read, not what crossed the wire. The profile's read window
// allows one file's size; the first read of the file fills the
// kernel-side cache, and the second, which that cache would serve
// without a frame, is denied at syscall entry: the row that reads twice
// puts exactly the frames on the wire of the row that reads once. And
// policy changes nothing below it: the row that reads once, recorded
// and enforced, puts the frames on the wire of the same row bare.
func TestRunReadCeilingCountsCacheHits(t *testing.T) {
	p := &policy.Profile{
		Rules: []policy.Rule{{Prefix: "/", Kinds: []string{
			"lookup", "getattr", "access", "open", "read", "opendir", "readdir", "getxattr",
		}}},
		WindowOps:          policy.CeilingWindowOps,
		ReadBytesPerWindow: gdbSize,
	}
	reads := func(n int) *Benchmark {
		return &Benchmark{Name: fmt.Sprintf("read gdb %dx", n), Prepare: seedTools, Run: func(ctx *Ctx) (int64, error) {
			f, err := ctx.Cli.Open("/usr/bin/gdb", vfs.ORdonly, 0)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			buf := make([]byte, gdbSize)
			for i := 0; i < n; i++ {
				if k, err := f.ReadAt(buf, 0); err != nil {
					return 0, err
				} else if k != gdbSize {
					return 0, fmt.Errorf("read %d bytes of %d", k, gdbSize)
				}
			}
			return gdbSize, nil
		}}
	}
	bare := Run(reads(1), Setup{})
	once := Run(reads(1), Setup{Record: policy.NewCollector(), Enforce: p})
	if once.Err != nil || once.Denials != 0 {
		t.Fatalf("one read under the ceiling: %v, %d denials (%+v)", once.Err, once.Denials, once.Violations)
	}
	if once.frames[fuse.OpRead] == 0 {
		t.Fatal("the first read sent no READ frame: nothing filled the kernel-side cache")
	}
	if once.frames != bare.frames {
		t.Fatalf("policy changed the frames below it:\nbare     %v\nenforced %v", bare.frames, once.frames)
	}
	twice := Run(reads(2), Setup{Enforce: p})
	if !errors.Is(twice.Err, vfs.EACCES) {
		t.Fatalf("second read past the ceiling: %v, want EACCES", twice.Err)
	}
	if v := twice.Violations; twice.Denials != 1 || len(v) != 1 || v[0].Kind != vfs.KindRead || v[0].Reason != "read rate" {
		t.Fatalf("denials %d, violations %+v; want the second read denied for its ceiling", twice.Denials, v)
	}
	if twice.frames != once.frames {
		t.Fatalf("the denied read sent frames:\nonce  %v\ntwice %v", once.frames, twice.frames)
	}
}
