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
	col.JoinOriginStats(sess.Mount.Server.OriginStats())

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
	if !p.Allows(vfs.KindReaddir, "/usr/bin") {
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

// TestAttachRetiresOriginsOnExit: when the injected process exits, the
// mount's per-origin accounting for it is folded into the aggregate
// bucket via the process table's exit hooks.
func TestAttachRetiresOriginsOnExit(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	pid := uint32(sess.Proc.PID)
	// The process-table client is not chrooted: the CntrFS mount sits at
	// the temporary mount point. Its operations carry the process's PID.
	cli := sess.Proc.Client()
	if _, err := cli.ReadDir(tmpMountPoint + "/usr/bin"); err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.Mount.Server.OriginStats()[pid]; !ok {
		t.Fatalf("no origin stats for session pid %d", pid)
	}
	server := sess.Mount.Server
	sess.Close() // exits the process, firing the retire hook
	if _, ok := server.OriginStats()[pid]; ok {
		t.Fatalf("origin %d not retired after exit", pid)
	}
	if server.RetiredOriginStats().Ops == 0 {
		t.Fatal("retired aggregate empty after exit")
	}
}

// TestAttachPolicySeesEveryOpen: the policy interceptors sit on the
// server side of the mount, so an attached session's server keeps being
// asked on every open (stack.NewMount turns fuse.MountOptions.NoOpen off
// when it is handed any): Trace records the open of a regular file, and
// Enforce can deny one whose lookup it allows.
func TestAttachPolicySeesEveryOpen(t *testing.T) {
	h, _, _ := testWorld(t)
	p := tracedProfile(t, h)
	if !p.Allows(vfs.KindOpen, "/etc/gdbinit") {
		t.Fatalf("the traced read of /etc/gdbinit recorded no open: %+v", p.Rules)
	}
	if !p.Allows(vfs.KindLookup, "/usr/bin/gdb") || p.Allows(vfs.KindOpen, "/usr/bin/gdb") {
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
