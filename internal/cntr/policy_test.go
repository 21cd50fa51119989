package cntr

import (
	"strings"
	"testing"

	"cntr/internal/policy"
	"cntr/internal/vfs"
)

// tracedProfile attaches with tracing enabled, exercises the session,
// and returns the profile generated from the recording.
func tracedProfile(t *testing.T, h *Host) *policy.Profile {
	t.Helper()
	col := policy.NewCollector()
	sess, err := Attach(h, Options{Container: "db", Fat: "tools", Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Client.ReadDir("/usr/bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Client.ReadFile("/etc/gdbinit"); err != nil {
		t.Fatal(err)
	}

	// The activity profile is exposed as a /proc-style file.
	snap := h.Procs.Snapshot()
	cli := vfs.NewClient(snap, vfs.Root())
	blob, err := cli.ReadFile("/policy/db")
	if err != nil {
		t.Fatalf("reading /policy/db from proc snapshot: %v", err)
	}
	if !strings.Contains(string(blob), "lookup") {
		t.Fatalf("policy view records no lookups:\n%s", blob)
	}
	sess.Close()
	return col.Profile(policy.GenOptions{})
}

func TestAttachTraceGeneratesProfile(t *testing.T) {
	h, _, _ := testWorld(t)
	p := tracedProfile(t, h)
	if len(p.Rules) == 0 {
		t.Fatal("empty profile from traced session")
	}
	if !p.Compile().Allows(vfs.KindReaddir, "/usr/bin") {
		t.Fatalf("profile misses the traced readdir: %+v", p.Rules)
	}
}

func TestAttachEnforcesProfile(t *testing.T) {
	h, _, _ := testWorld(t)
	p := tracedProfile(t, h)

	sess, err := Attach(h, Options{Container: "db", Fat: "tools", Enforce: p})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// The traced workload replays cleanly...
	if _, err := sess.Client.ReadDir("/usr/bin"); err != nil {
		t.Fatalf("on-profile readdir denied: %v", err)
	}
	if _, err := sess.Client.ReadFile("/etc/gdbinit"); err != nil {
		t.Fatalf("on-profile read denied: %v", err)
	}
	if n := sess.Enforcer.Denials(); n != 0 {
		t.Fatalf("false denials during replay: %d (%+v)", n, sess.Enforcer.Violations())
	}
	// ...and an operation the recording never did is denied.
	if err := sess.Client.WriteFile("/smuggled", []byte("x"), 0o644); err != vfs.EACCES {
		t.Fatalf("off-profile create: %v, want EACCES", err)
	}
	if sess.Enforcer.Denials() == 0 {
		t.Fatal("denial not recorded")
	}
}

func TestAttachAuditMode(t *testing.T) {
	h, _, _ := testWorld(t)
	p := tracedProfile(t, h)

	sess, err := Attach(h, Options{
		Container: "db", Fat: "tools",
		Enforce: p, EnforceAudit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Client.WriteFile("/smuggled", []byte("x"), 0o644); err != nil {
		t.Fatalf("audit mode must not deny: %v", err)
	}
	if sess.Enforcer.Denials() != 0 {
		t.Fatalf("audit mode denied %d operations", sess.Enforcer.Denials())
	}
	if sess.Enforcer.Audited() == 0 {
		t.Fatal("audit mode recorded nothing")
	}
}

// TestAttachPolicyViewLifecycle: enforcing a merged profile with a
// baseline exposes the lifecycle header and the last-diff summary in
// /proc/policy/<container>, alongside the live activity.
func TestAttachPolicyViewLifecycle(t *testing.T) {
	h, _, _ := testWorld(t)
	base := tracedProfile(t, h)
	merged := policy.Merge(policy.MergeOptions{}, base)

	col := policy.NewCollector()
	sess, err := Attach(h, Options{
		Container: "db", Fat: "tools",
		Trace:   col,
		Enforce: merged, EnforceBaseline: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Client.ReadDir("/usr/bin"); err != nil {
		t.Fatalf("on-profile readdir denied: %v", err)
	}

	snap := h.Procs.Snapshot()
	cli := vfs.NewClient(snap, vfs.Root())
	blob, err := cli.ReadFile("/policy/db")
	if err != nil {
		t.Fatalf("reading /policy/db: %v", err)
	}
	view := string(blob)
	for _, want := range []string{`"profile"`, `"generation"`, `"last_diff"`, `"activity"`} {
		if !strings.Contains(view, want) {
			t.Fatalf("policy view missing %s:\n%s", want, view)
		}
	}
	if sess.Enforcer.Denials() != 0 {
		t.Fatalf("merged profile denied its own recording: %+v", sess.Enforcer.Violations())
	}
}

// TestAttachPolicySeesEveryOpen: the policy interceptors sit where a
// syscall enters the session's mount, above the kernel-side cache, so
// they see every open the session makes even though the mount opens
// regular files without a message to the server (fuse.MountOptions
// NoOpen): Trace records the open of a regular file, and Enforce can
// deny one whose lookup it allows.
func TestAttachPolicySeesEveryOpen(t *testing.T) {
	h, _, _ := testWorld(t)
	p := tracedProfile(t, h)
	if !p.Compile().Allows(vfs.KindOpen, "/etc/gdbinit") {
		t.Fatalf("the traced read of /etc/gdbinit recorded no open: %+v", p.Rules)
	}
	if !p.Compile().Allows(vfs.KindLookup, "/usr/bin/gdb") || p.Compile().Allows(vfs.KindOpen, "/usr/bin/gdb") {
		t.Fatalf("the profile should allow looking /usr/bin/gdb up and not opening it: %+v", p.Rules)
	}
	sess, err := Attach(h, Options{Container: "db", Fat: "tools", Enforce: p})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Client.ReadFile("/etc/gdbinit"); err != nil {
		t.Fatalf("on-profile read denied: %v", err)
	}
	if _, err := sess.Client.Open("/usr/bin/gdb", vfs.ORdonly, 0); err != vfs.EACCES {
		t.Fatalf("off-profile open: %v, want EACCES", err)
	}
	v := sess.Enforcer.Violations()
	if sess.Enforcer.Denials() != 1 || len(v) != 1 || v[0].Kind != vfs.KindOpen || !v[0].Denied {
		t.Fatalf("denials %d, violations %+v; want the one open denied", sess.Enforcer.Denials(), v)
	}
}

// TestAttachReadCeilingCountsCacheHits: a byte ceiling counts what the
// session read, not what crossed the wire. The profile's read window
// allows one file's size; the first read of the file fills the
// kernel-side cache, and the second, which that cache would serve
// without a frame, is denied at syscall entry.
func TestAttachReadCeilingCountsCacheHits(t *testing.T) {
	h, _, _ := testWorld(t)
	const path, size = "/usr/bin/gdb", 5000
	p := &policy.Profile{
		Rules: []policy.Rule{{Prefix: "/", Kinds: []string{
			"lookup", "getattr", "access", "open", "read", "opendir", "readdir", "getxattr",
		}}},
		WindowOps:          policy.CeilingWindowOps,
		ReadBytesPerWindow: size,
	}
	sess, err := Attach(h, Options{Container: "db", Fat: "tools", Enforce: p})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	f, err := sess.Client.Open(path, vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if n, err := f.ReadAt(buf, 0); n != size || err != nil {
		t.Fatalf("first read of %s: %d bytes, %v; want all %d", path, n, err, size)
	}
	frames := sess.Mount.Conn.Stats().Requests
	if _, err := f.ReadAt(buf, 0); err != vfs.EACCES {
		t.Fatalf("second read of %s past the ceiling: %v, want EACCES", path, err)
	}
	if n := sess.Mount.Conn.Stats().Requests - frames; n != 0 {
		t.Fatalf("the denied read sent %d frames", n)
	}
	v := sess.Enforcer.Violations()
	if sess.Enforcer.Denials() != 1 || len(v) != 1 || v[0].Kind != vfs.KindRead || v[0].Reason != "read rate" {
		t.Fatalf("denials %d, violations %+v; want the second read denied for its ceiling", sess.Enforcer.Denials(), v)
	}
}

// TestAttachRefusesUntrackableWindow: a profile built in code with a
// window Load would refuse is refused at attach, with Load's error and
// no session left behind. Before, it reached the enforcer, whose first
// read panicked allocating the window while holding the enforcer's lock.
func TestAttachRefusesUntrackableWindow(t *testing.T) {
	h, _, _ := testWorld(t)
	p := &policy.Profile{
		Rules:              []policy.Rule{{Prefix: "/", Kinds: []string{"lookup", "getattr", "open", "read"}}},
		WindowOps:          1 << 62,
		ReadBytesPerWindow: 1 << 20,
	}
	sess, err := Attach(h, Options{Container: "db", Fat: "tools", Enforce: p})
	if err == nil {
		sess.Close()
		t.Fatal("attach accepted window_ops 2^62")
	}
	if !strings.Contains(err.Error(), "window_ops") {
		t.Fatalf("attach error %q does not name window_ops", err)
	}
}
