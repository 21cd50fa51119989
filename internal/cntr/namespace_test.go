package cntr

import (
	"fmt"
	"strings"
	"testing"

	"cntr/internal/namespace"
	"cntr/internal/socketproxy"
	"cntr/internal/vfs"
)

// netSockets is the socket table of the network namespace set is in.
func netSockets(h *Host, set *namespace.Set) *socketproxy.Registry {
	return h.SocketsFor(set.ID(namespace.KindNet))
}

// nsIDs reads /proc/<pid>/ns/<kind> for every kind through cli, a client
// rooted at a /proc snapshot ("/<pid>/ns/...") or at a session's root
// ("/proc/<pid>/ns/...", with prefix "/proc").
func nsIDs(t *testing.T, cli *vfs.Client, prefix string, pid int) [namespace.NumKinds]string {
	t.Helper()
	var ids [namespace.NumKinds]string
	for k := namespace.Kind(0); int(k) < namespace.NumKinds; k++ {
		b, err := cli.ReadFile(fmt.Sprintf("%s/%d/ns/%s", prefix, pid, k))
		if err != nil {
			t.Fatalf("pid %d ns/%s: %v", pid, k, err)
		}
		s := string(b)
		if !strings.HasPrefix(s, k.String()+":[") || s == k.String()+":[0]" {
			t.Fatalf("pid %d ns/%s = %q", pid, k, s)
		}
		ids[k] = s
	}
	return ids
}

// TestAttachNamespaceRelations pins the namespace facts programs see on
// a host shaped like cmd/cntr's demo: host init (pid 1), the application
// container (pid 2), the tools container (pid 3) and a session attached
// to the application (pid 4). For every kind, the pids whose
// /proc/<pid>/ns/<kind> agree are exactly those the relation names: the
// session joins each namespace of the application but its mount
// namespace, and every container shares the host's user namespace.
// Attaching leaves the ids of the pids already running untouched, the
// session's hostname is the application's, and a socket bound in the
// application's network namespace is dialable from the session's.
func TestAttachNamespaceRelations(t *testing.T) {
	h, app, tools := testWorld(t)
	if app.MainPID != 2 || tools.MainPID != 3 {
		t.Fatalf("main pids = %d, %d; want 2, 3", app.MainPID, tools.MainPID)
	}
	snap := vfs.NewClient(h.Procs.Snapshot(), vfs.Root())
	var before [3][namespace.NumKinds]string
	for i := range before {
		before[i] = nsIDs(t, snap, "", i+1)
	}

	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Proc.PID != 4 {
		t.Fatalf("session pid = %d, want 4", sess.Proc.PID)
	}
	var ids [4][namespace.NumKinds]string
	for i := range ids {
		ids[i] = nsIDs(t, sess.Client, "/proc", i+1)
	}
	for i := range before {
		if ids[i] != before[i] {
			t.Errorf("pid %d: ids %v before the attach, %v after", i+1, before[i], ids[i])
		}
	}

	// One letter per pid 1–4: equal letters mean a shared namespace.
	relations := map[namespace.Kind]string{
		namespace.KindMount:  "ABCD",
		namespace.KindPID:    "ABCB",
		namespace.KindNet:    "ABCB",
		namespace.KindUTS:    "ABCB",
		namespace.KindIPC:    "ABCB",
		namespace.KindUser:   "AAAA",
		namespace.KindCgroup: "ABCB",
	}
	if len(relations) != namespace.NumKinds {
		t.Fatalf("relations name %d kinds of %d", len(relations), namespace.NumKinds)
	}
	for k, rel := range relations {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				if want, got := rel[a] == rel[b], ids[a][k] == ids[b][k]; got != want {
					t.Errorf("%s: pids %d and %d share = %v, want %v (%s vs %s)",
						k, a+1, b+1, got, want, ids[a][k], ids[b][k])
				}
			}
		}
		if got := fmt.Sprintf("%s:[%d]", k, sess.Nested.ID(k)); got != ids[3][k] {
			t.Errorf("%s: session set says %s, /proc/4 says %s", k, got, ids[3][k])
		}
	}

	if out, err := sess.Run("hostname"); err != nil || out != "db\n" {
		t.Errorf("hostname = %q, %v; want the application's", out, err)
	}

	appProc, _ := h.Procs.Get(app.MainPID)
	toolsProc, _ := h.Procs.Get(tools.MainPID)
	l, err := netSockets(h, appProc.Namespaces).Listen("/run/app.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := netSockets(h, sess.Nested).Dial("/run/app.sock")
	if err != nil {
		t.Fatalf("dial the application's socket from the session: %v", err)
	}
	conn.Close()
	if _, err := netSockets(h, toolsProc.Namespaces).Dial("/run/app.sock"); err == nil {
		t.Fatal("the tools container's socket table holds the application's socket")
	}
	if _, err := h.HostSockets().Dial("/run/app.sock"); err == nil {
		t.Fatal("the host's socket table holds the application's socket")
	}
}
