package cntrfs

import (
	"bytes"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

func newFS(t *testing.T) (*FS, *vfs.Client, *vfs.Client) {
	t.Helper()
	host := memfs.New(memfs.Options{})
	hostCli := vfs.NewClient(host, vfs.Root())
	cfs := New(host, Options{DedupHardlinks: true})
	return cfs, vfs.NewClient(cfs, vfs.Root()), hostCli
}

func TestPassthroughReadWrite(t *testing.T) {
	_, cli, hostCli := newFS(t)
	if err := hostCli.WriteFile("/host.txt", []byte("from host"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/host.txt")
	if err != nil || string(got) != "from host" {
		t.Fatalf("through cntrfs: %q %v", got, err)
	}
	if err := cli.WriteFile("/fromcntr", []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = hostCli.ReadFile("/fromcntr")
	if err != nil || string(got) != "hi" {
		t.Fatalf("on host: %q %v", got, err)
	}
}

func TestInodeNumbersAreVirtual(t *testing.T) {
	_, cli, hostCli := newFS(t)
	hostCli.MkdirAll("/a/b", 0o755)
	hostCli.WriteFile("/a/b/f", nil, 0o644)
	hostAttr, _ := hostCli.Stat("/a/b/f")
	cntrAttr, err := cli.Stat("/a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	if cntrAttr.Ino == hostAttr.Ino {
		t.Skip("inos may coincide; ensure mapping exists at least")
	}
}

func TestHardlinkDedup(t *testing.T) {
	_, cli, hostCli := newFS(t)
	hostCli.WriteFile("/orig", []byte("x"), 0o644)
	hostCli.Link("/orig", "/alias")
	a, err := cli.Stat("/orig")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cli.Stat("/alias")
	if err != nil {
		t.Fatal(err)
	}
	if a.Ino != b.Ino {
		t.Fatalf("hard links must share a CntrFS inode: %d vs %d", a.Ino, b.Ino)
	}
}

func TestNoDedupAblationBreaksLinkIdentity(t *testing.T) {
	host := memfs.New(memfs.Options{})
	hostCli := vfs.NewClient(host, vfs.Root())
	cfs := New(host, Options{DedupHardlinks: false})
	cli := vfs.NewClient(cfs, vfs.Root())
	hostCli.WriteFile("/orig", nil, 0o644)
	hostCli.Link("/orig", "/alias")
	a, _ := cli.Stat("/orig")
	b, _ := cli.Stat("/alias")
	if a.Ino == b.Ino {
		t.Fatal("without dedup the two paths should get distinct inodes")
	}
}

func TestForgetEvictsInodeTable(t *testing.T) {
	cfs, cli, hostCli := newFS(t)
	for i := 0; i < 100; i++ {
		hostCli.WriteFile("/f"+string(rune('a'+i%26))+string(rune('0'+i/26)), nil, 0o644)
	}
	ents, err := cli.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, err := cli.Stat("/" + e.Name); err != nil {
			t.Fatal(err)
		}
	}
	grown := len(cfs.nodes)
	if grown < 100 {
		t.Fatalf("node count = %d, want >= 100", grown)
	}
	// Forget everything the lookups registered: a resolve and a forget of
	// one leave the stat's lookup, which must be what the table keeps; a
	// second resolve and a forget of two leave nothing.
	for _, forget := range []uint64{1, 2} {
		for _, e := range ents {
			r, err := cli.Lresolve("/" + e.Name)
			if err != nil {
				t.Fatal(err)
			}
			cfs.Forget(cli.Op, r.Ino, forget)
		}
		if want := map[uint64]int{1: grown, 2: 1}[forget]; len(cfs.nodes) != want {
			t.Fatalf("node count after forgets of %d = %d, want %d", forget, len(cfs.nodes), want)
		}
	}
}

// TestForgetForwardsCount: every CntrFS lookup made a lookup of the
// backing's, so the forget that evicts a node hands the backing all of
// them. Over a union, which keeps a node per looked-up object, three
// lookups of /f and a forget of three leave no union node for /f.
func TestForgetForwardsCount(t *testing.T) {
	lower := memfs.New(memfs.Options{})
	if err := vfs.NewClient(lower, vfs.Root()).WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	union := unionfs.NewWith(unionfs.Options{}, lower)
	cfs := New(union, Options{DedupHardlinks: true})
	op := vfs.NewOp(nil, vfs.Root())
	var attr vfs.Attr
	for range 3 {
		var err error
		if attr, err = cfs.Lookup(op, vfs.RootIno, "f"); err != nil {
			t.Fatal(err)
		}
	}
	back := cfs.nodes[attr.Ino].backIno
	cfs.Forget(op, attr.Ino, 3)
	if _, err := union.Getattr(op, back); vfs.ToErrno(err) != vfs.ESTALE {
		t.Fatalf("union inode of /f after its lookups were forgotten: %v, want ESTALE", err)
	}
}

func TestStaleInodeAfterForget(t *testing.T) {
	cfs, cli, hostCli := newFS(t)
	hostCli.WriteFile("/f", nil, 0o644)
	r, err := cli.Resolve("/f")
	if err != nil {
		t.Fatal(err)
	}
	cfs.Forget(cli.Op, r.Ino, 1)
	if _, err := cfs.Getattr(cli.Op, r.Ino); vfs.ToErrno(err) != vfs.ESTALE {
		t.Fatalf("forgotten inode: %v, want ESTALE", err)
	}
}

func TestRootNeverForgotten(t *testing.T) {
	cfs, cli, _ := newFS(t)
	cfs.Forget(cli.Op, vfs.RootIno, 100)
	if _, err := cli.Stat("/"); err != nil {
		t.Fatalf("root must survive forgets: %v", err)
	}
}

func TestNotExportable(t *testing.T) {
	cfs, _, _ := newFS(t)
	// CntrFS must NOT implement vfs.HandleExporter: its inodes are
	// dynamic (xfstests #426).
	var fsAny interface{} = cfs
	if _, ok := fsAny.(vfs.HandleExporter); ok {
		t.Fatal("CntrFS inodes must not be exportable")
	}
}

func TestChmodDelegationKeepsSgid(t *testing.T) {
	// The server-side credential has CAP_FSETID (setfsuid semantics), so
	// a chmod replayed for an unprivileged caller keeps the SGID bit
	// where a native filesystem would clear it — xfstests #375.
	_, _, hostCli := newFS(t)
	cfs, _, _ := newFS(t)
	_ = hostCli
	host := cfs.backing
	rootCli := vfs.NewClient(host, vfs.Root())
	rootCli.WriteFile("/f", nil, 0o644)
	rootCli.Chown("/f", 1000, 5000) // caller 1000 not in group 5000

	// Simulate the FUSE server path: fsuid/fsgid switched, caps kept.
	serverCred := vfs.Root()
	serverCred.FSUID = 1000
	serverCred.FSGID = 1000
	cntrCli := vfs.NewClient(cfs, serverCred)
	if err := cntrCli.Chmod("/f", 0o2755); err != nil {
		t.Fatal(err)
	}
	attr, _ := cntrCli.Stat("/f")
	if attr.Mode&vfs.ModeSetGID == 0 {
		t.Fatal("delegated chmod cleared SGID; CntrFS should exhibit the #375 behaviour")
	}
}

// writeSpy records the request context the backing filesystem's Write
// was handed.
type writeSpy struct {
	vfs.FS
	op    *vfs.Op
	limit int64
}

func (w *writeSpy) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	w.op, w.limit = op, op.Cred.FSizeLimit
	return w.FS.Write(op, h, off, data)
}

// TestRlimitFsizeNotEnforced: the replayed write runs without the
// caller's RLIMIT_FSIZE (xfstests #228) — and a caller that has none, as
// every request off the wire, is replayed under its own request context,
// not a copy made to zero a field that is zero.
func TestRlimitFsizeNotEnforced(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int64
	}{{"limited", 10}, {"unlimited", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			spy := &writeSpy{FS: memfs.New(memfs.Options{})}
			cfs := New(spy, Options{DedupHardlinks: true})
			cred := vfs.Root()
			cred.FSizeLimit = tc.limit
			op := vfs.NewOp(nil, cred)
			_, h, err := cfs.Create(op, vfs.RootIno, "big", 0o644, vfs.OWronly)
			if err != nil {
				t.Fatal(err)
			}
			n, err := cfs.Write(op, h, 0, make([]byte, 100))
			if err != nil || n != 100 {
				t.Fatalf("write = %d, %v; CntrFS must not enforce RLIMIT_FSIZE (#228)", n, err)
			}
			if spy.limit != 0 {
				t.Errorf("the backing write ran with RLIMIT_FSIZE %d, want it stripped", spy.limit)
			}
			if cred.FSizeLimit != tc.limit {
				t.Errorf("the caller's credential was edited: limit %d, want %d", cred.FSizeLimit, tc.limit)
			}
			if own := spy.op == op; own != (tc.limit == 0) {
				t.Errorf("backing received the caller's own *Op: %v, want %v", own, tc.limit == 0)
			}
			if spy.op.ID != op.ID || spy.op.Context() != op.Context() {
				t.Error("the replay lost the request's identity")
			}
		})
	}
}

func TestMetadataOpsForwarded(t *testing.T) {
	_, cli, hostCli := newFS(t)
	if err := cli.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cli.Symlink("/d/sub", "/ln"); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteFile("/d/sub/f", []byte("1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cli.Rename("/d/sub/f", "/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Link("/d/f", "/hard"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Remove("/d/sub"); err != nil {
		t.Fatal(err)
	}
	// All visible on the host.
	if _, err := hostCli.Stat("/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := hostCli.Stat("/hard"); err != nil {
		t.Fatal(err)
	}
	if tgt, _ := hostCli.Readlink("/ln"); tgt != "/d/sub" {
		t.Fatalf("symlink target %q", tgt)
	}
}

func TestXattrForwardedOpaquely(t *testing.T) {
	cfs, cli, _ := newFS(t)
	cli.WriteFile("/f", nil, 0o644)
	r, _ := cli.Resolve("/f")
	acl := vfs.EncodeACL(vfs.FromMode(0o640))
	if err := cfs.Setxattr(cli.Op, r.Ino, vfs.XattrPosixACLAccess, acl, 0); err != nil {
		t.Fatal(err)
	}
	v, err := cfs.Getxattr(cli.Op, r.Ino, vfs.XattrPosixACLAccess)
	if err != nil || !bytes.Equal(v, acl) {
		t.Fatalf("ACL xattr: %v %v", v, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfs, _, hostCli := newFS(t)
	_ = hostCli
	stats := vfs.NewStats()
	cli := vfs.NewClient(vfs.Chain(cfs, stats), vfs.Root())
	cli.WriteFile("/f", []byte("abc"), 0o644)
	cli.ReadFile("/f")
	st := stats.Snapshot()
	if st.Creates == 0 || st.Reads == 0 || st.Writes == 0 || st.Lookups == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
