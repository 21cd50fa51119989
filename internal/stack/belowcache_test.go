package stack

import (
	"bytes"
	"testing"

	"cntr/internal/policy"
	"cntr/internal/vfs"
)

// TestBelowCacheEnforcerAdmitsMountTraffic: a real policy.Enforcer wired
// below the kernel cache gates the mount's actual FUSE traffic, and an
// allow-all profile must let the workload through with zero denials.
func TestBelowCacheEnforcerAdmitsMountTraffic(t *testing.T) {
	p := &policy.Profile{Rules: []policy.Rule{{
		Prefix: "/",
		Kinds: []string{"lookup", "getattr", "setattr", "create", "open",
			"read", "write", "fsync", "access", "opendir", "readdir",
			"getxattr", "setxattr"},
	}}}
	enf := policy.NewEnforcer(p, false)
	c := NewCntr(Config{BelowCache: []vfs.Interceptor{enf}})
	defer c.Close()
	cli := vfs.NewClient(c.Top, vfs.Root())

	data := bytes.Repeat([]byte("policy"), 1<<19/6)
	if err := cli.WriteFile("/ok", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/ok")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("enforced read: %d bytes, %v", len(got), err)
	}
	if d := enf.Denials(); d != 0 {
		t.Fatalf("allow-all profile denied %d operations: %+v", d, enf.Violations())
	}
}

// TestBelowCacheTracerRecordsMountTraffic: a vfs.Tracer in BelowCache
// is all a below-cache recording needs — here its sink feeds a policy
// collector run, and the profile generated from it covers what the
// mount actually served.
func TestBelowCacheTracerRecordsMountTraffic(t *testing.T) {
	col := policy.NewCollector()
	tracer := vfs.NewTracer(1)
	tracer.Sink = col.NewRun().Sink
	c := NewCntr(Config{BelowCache: []vfs.Interceptor{tracer}})
	defer c.Close()
	cli := vfs.NewClient(c.Top, vfs.Root())
	data := bytes.Repeat([]byte("record"), 1<<18/6)
	if err := cli.WriteFile("/logged", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadFile("/logged"); err != nil {
		t.Fatal(err)
	}

	p := col.Profile(policy.GenOptions{})
	// The write crossed the FUSE boundary; the read-back was served from
	// the kernel page cache and rightly never reached the recorder —
	// below-cache profiles describe real mount traffic, not syscalls.
	if !p.Allows(vfs.KindWrite, "/logged") {
		t.Fatalf("recording missed the write: %+v", p.Rules)
	}
	if !p.Allows(vfs.KindLookup, "/logged") {
		t.Fatalf("recording missed the lookup: %+v", p.Rules)
	}
	if p.Allows(vfs.KindRead, "/logged") {
		t.Fatalf("the cached read-back reached the recorder: %+v", p.Rules)
	}
}

// TestBelowCacheEmptyIsIdentity: with no below-cache interceptors the
// kernel cache must sit directly on the FUSE connection — no wrapper,
// so the data path is exactly what it was before this knob.
func TestBelowCacheEmptyIsIdentity(t *testing.T) {
	c := NewCntr(Config{})
	defer c.Close()
	if got := vfs.Unwrap(vfs.FS(c.Conn)); got != vfs.FS(c.Conn) {
		t.Fatal("Unwrap on the bare connection must be the identity")
	}
	// The stack's own wiring: nothing between cache and connection.
	cli := vfs.NewClient(c.Top, vfs.Root())
	if err := cli.WriteFile("/f", []byte("id"), 0o644); err != nil {
		t.Fatal(err)
	}
}
