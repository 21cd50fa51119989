package cntr

import (
	"bytes"
	"io"
	"testing"

	"cntr/internal/cachesvc"
	"cntr/internal/cgroup"
	"cntr/internal/fuse"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// TestAttachWritesReachToolsSide: a file written and closed inside the
// session is on the tools side when close returns — the kernel-side
// cache flushes on close, as fuse_flush does — so a process in the fat
// container's own namespace (or on the host, in host-tools mode) reads
// what the session wrote.
func TestAttachWritesReachToolsSide(t *testing.T) {
	h, _, fat := testWorld(t)
	fatProc, err := h.Procs.Get(fat.MainPID)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fat   string
		tools *vfs.Client
	}{
		{"fat", "tools", fatProc.Client()},
		{"host", "", vfs.NewClient(h.RootFS, vfs.Root())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := Attach(h, Options{Container: "db", Fat: tc.fat})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.Run("echo hello > /etc/note"); err != nil {
				t.Fatal(err)
			}
			if out, err := sess.Run("cat /etc/note"); err != nil || out != "hello\n" {
				t.Fatalf("session reads back %q, %v", out, err)
			}
			got, err := tc.tools.ReadFile("/etc/note")
			if err != nil || string(got) != "hello\n" {
				t.Fatalf("tools side reads %q, %v; want what the session wrote", got, err)
			}
		})
	}
}

// seedPath is a 1 MiB file put on the served filesystem behind the
// mount's back, so reading it is cold.
const seedPath = "/seed"

var mib = bytes.Repeat([]byte("cntr"), 1<<20/4)

// readSequential reads path in 16 KiB calls and checks it holds mib.
func readSequential(t *testing.T, cli *vfs.Client, path string) {
	t.Helper()
	f, err := cli.Open(path, vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	total := 0
	for {
		n, err := f.Read(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], mib[total:total+n]) {
			t.Fatalf("%s differs at offset %d", path, total)
		}
		total += n
	}
	if total != len(mib) {
		t.Fatalf("%s: read %d bytes, want %d", path, total, len(mib))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// mountTraffic drives one sequence through a mount — create a file,
// write 1 MiB sequentially, close, reopen and read it back, then read
// the seeded file cold — and returns what it cost on the connection.
func mountTraffic(t *testing.T, served *Host, cli *vfs.Client, conn *fuse.Conn) fuse.ConnStats {
	t.Helper()
	if err := vfs.NewClient(served.RootFS, vfs.Root()).WriteFile(seedPath, mib, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/"); err != nil { // attach has looked at the root already
		t.Fatal(err)
	}
	before := conn.Stats()
	f, err := cli.Create("/blob", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(mib); off += 16 << 10 {
		if _, err := f.Write(mib[off : off+16<<10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	readSequential(t, cli, "/blob")
	readSequential(t, cli, seedPath)
	after := conn.Stats()
	return fuse.ConnStats{
		Requests: after.Requests - before.Requests,
		BytesOut: after.BytesOut - before.BytesOut,
		BytesIn:  after.BytesIn - before.BytesIn,
	}
}

// TestAttachedMountIsTheMeasuredMount: the mount an attached session
// gets and a bare stack.NewMount over an identically seeded filesystem
// put the same frames on the wire for the same work — same writeback
// window, same write-out at close, same cache kept across the reopen,
// same readahead windows. This is what keeps the attach workflow and
// the benchmarked stack from drifting apart again.
func TestAttachedMountIsTheMeasuredMount(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db"}) // host tools: serves h.RootFS
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	attached := mountTraffic(t, h, sess.Client, sess.Mount.Conn)

	twin := NewHost() // seeds its root filesystem exactly as testWorld's host did
	m := stack.NewMount(twin.RootFS, twin.Clock, twin.Model, stack.Config{})
	defer m.Close()
	bare := mountTraffic(t, twin, vfs.NewClient(m.Kernel, vfs.Root()), m.Conn)

	if attached != bare {
		t.Fatalf("attached mount's wire traffic differs from stack.NewMount's:\nattached %+v\nbare     %+v", attached, bare)
	}
	t.Logf("requests %d, bytes out %d, in %d", bare.Requests, bare.BytesOut, bare.BytesIn)
	if bare.BytesOut < 1<<20 || bare.BytesIn < 1<<20 {
		t.Fatalf("the sequence did not cross the wire both ways: %+v", bare)
	}
}

// TestAttachFailureReleasesLeases: an attach that fails after the mount
// exists (here the container's cgroup is at its pids limit) tears the
// mount down through Mount.Close — no cache-tier lease and no injected
// process is left behind.
func TestAttachFailureReleasesLeases(t *testing.T) {
	h, slim, _ := testWorld(t)
	if _, err := h.Procs.Cgroups.Create(slim.CgroupPath, cgroup.Limits{PidsMax: 1}); err != nil {
		t.Fatal(err)
	}
	tier := cachesvc.New(cachesvc.Options{Shards: 8, Groups: 4})
	procs := len(h.Procs.Pids())
	if _, err := Attach(h, Options{Container: "db", Fat: "tools", CacheService: tier}); err != vfs.EAGAIN {
		t.Fatalf("attach into a full cgroup: %v, want EAGAIN", err)
	}
	if st := tier.Stats(); st.LeasesActive != 0 {
		t.Fatalf("failed attach left %d leases held", st.LeasesActive)
	}
	if n := len(h.Procs.Pids()); n != procs {
		t.Fatalf("failed attach left %d processes behind", n-procs)
	}
}
