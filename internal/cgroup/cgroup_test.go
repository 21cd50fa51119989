package cgroup

import (
	"testing"

	"cntr/internal/vfs"
)

func TestCreateAndGet(t *testing.T) {
	h := New()
	h.Create("/docker/abc", Limits{PidsMax: 64})
	// Intermediate group auto-created.
	if _, ok := h.groups["/docker"]; !ok {
		t.Fatal("ancestor missing")
	}
	if g := h.groups["/docker/abc"]; g == nil || g.limits.PidsMax != 64 {
		t.Fatalf("group = %+v", g)
	}
}

func TestAttachMovesBetweenGroups(t *testing.T) {
	h := New()
	h.Create("/a", Limits{})
	h.Create("/b", Limits{})
	if err := h.Attach(42, "/a"); err != nil {
		t.Fatal(err)
	}
	if h.Of(42) != "/a" {
		t.Fatalf("Of = %s", h.Of(42))
	}
	if err := h.Attach(42, "/b"); err != nil {
		t.Fatal(err)
	}
	if h.Of(42) != "/b" {
		t.Fatal("pid must move, not duplicate")
	}
	if len(h.groups["/a"].procs) != 0 {
		t.Fatal("pid left behind in old group")
	}
}

func TestPidsMaxEnforced(t *testing.T) {
	h := New()
	h.Create("/limited", Limits{PidsMax: 2})
	h.Attach(1, "/limited")
	h.Attach(2, "/limited")
	if err := h.Attach(3, "/limited"); vfs.ToErrno(err) != vfs.EAGAIN {
		t.Fatalf("over PidsMax: %v, want EAGAIN", err)
	}
}

func TestDeleteRules(t *testing.T) {
	h := New()
	h.Create("/x/y", Limits{})
	if err := h.Delete("/x"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("delete with child: %v", err)
	}
	h.Attach(7, "/x/y")
	if err := h.Delete("/x/y"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("delete with procs: %v", err)
	}
	h.Remove(7)
	if err := h.Delete("/x/y"); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("/x"); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("/"); vfs.ToErrno(err) != vfs.EPERM {
		t.Fatalf("delete root: %v", err)
	}
	if err := h.Delete("/ghost"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestAttachRemove(t *testing.T) {
	h := New()
	if err := h.Attach(7, "/ghost"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("attach to a missing group: %v", err)
	}
	h.Create("/x/y", Limits{})
	h.Attach(7, "/x/y")
	h.Remove(7)
	if h.Of(7) != "/" || len(h.groups["/x/y"].procs) != 0 {
		t.Fatalf("after Remove: Of = %s, group procs %v", h.Of(7), h.groups["/x/y"].procs)
	}
}

func TestOfDefaultsToRoot(t *testing.T) {
	h := New()
	if h.Of(999) != "/" {
		t.Fatal("unknown pid should report root group")
	}
}

func TestPathsNormalized(t *testing.T) {
	h := New()
	h.Create("docker//x/", Limits{})
	if err := h.Attach(1, "/docker/x"); err != nil {
		t.Fatal("path normalization failed")
	}
	if _, ok := h.groups["/docker/x"]; !ok {
		t.Fatalf("groups = %v", h.groups)
	}
}
