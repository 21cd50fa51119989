package cntr

import (
	"strings"
	"testing"

	"cntr/internal/container"
	"cntr/internal/vfs"
)

// testWorld builds a host with one slim application container (a
// MySQL-flavoured image without any tools) and one fat debug container
// (gdb, strace, and friends).
func testWorld(t *testing.T) (*Host, *container.Container, *container.Container) {
	t.Helper()
	h := NewHost()

	slimImg, err := container.BuildImage("mysql-slim", "8.0", container.ImageConfig{
		Cmd: []string{"/usr/sbin/mysqld"},
		Env: []string{"MYSQL_DATA=/var/lib/mysql", "LANG=C.UTF-8", "PATH=/usr/sbin"},
	}, container.LayerSpec{
		ID: "mysql-base",
		Files: []container.FileSpec{
			{Path: "/usr/sbin/mysqld", Size: 900, Executable: true},
			{Path: "/etc/passwd", Content: []byte("mysql:x:999:999::/var/lib/mysql:/bin/false\n")},
			{Path: "/etc/hostname", Content: []byte("db-1\n")},
			{Path: "/etc/my.cnf", Content: []byte("[mysqld]\ndatadir=/var/lib/mysql\n")},
			{Path: "/var/lib/mysql/ibdata1", Size: 4096},
			{Path: "/dev/null", Content: []byte{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fatImg, err := container.BuildImage("debug-tools", "latest", container.ImageConfig{
		Cmd: []string{"/bin/sh"},
		Env: []string{"PATH=/usr/bin:/bin", "EDITOR=vim"},
	}, container.LayerSpec{
		ID: "tools-base",
		Files: []container.FileSpec{
			{Path: "/usr/bin/gdb", Size: 5000, Executable: true},
			{Path: "/usr/bin/strace", Size: 3000, Executable: true},
			{Path: "/usr/bin/vim", Size: 2500, Executable: true},
			{Path: "/bin/sh", Size: 800, Executable: true},
			{Path: "/etc/gdbinit", Content: []byte("set pagination off\n")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	slim, err := h.Runtime.Create("db", slimImg, container.CreateOpts{Engine: "docker"})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Runtime.Start(slim); err != nil {
		t.Fatal(err)
	}
	fat, err := h.Runtime.Create("tools", fatImg, container.CreateOpts{Engine: "docker"})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Runtime.Start(fat); err != nil {
		t.Fatal(err)
	}
	return h, slim, fat
}

func TestAttachFatContainer(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Tools from the fat container are visible at / via CntrFS.
	out, err := sess.Run("ls /usr/bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"gdb", "strace", "vim"} {
		if !strings.Contains(out, tool) {
			t.Fatalf("tool %s missing from /usr/bin: %q", tool, out)
		}
	}

	// The application's filesystem appears under /var/lib/cntr.
	out, err = sess.Run("cat /var/lib/cntr/etc/my.cnf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "datadir=/var/lib/mysql") {
		t.Fatalf("app config not visible: %q", out)
	}
}

func TestAttachRunsToolThroughFUSE(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	served := sess.Mount.Server.Served()
	out, err := sess.Run("gdb /var/lib/cntr/usr/sbin/mysqld")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "executed /usr/bin/gdb (5000 bytes)") {
		t.Fatalf("exec output: %q", out)
	}
	if sess.Mount.Server.Served() <= served {
		t.Fatal("running a tool must cross the FUSE boundary")
	}
}

func TestAttachSpecialFilesBindMounted(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// /etc/passwd comes from the application container, not the tools
	// image (which has none at that path) nor the host.
	out, err := sess.Run("cat /etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mysql:x:999") {
		t.Fatalf("/etc/passwd should be the app container's: %q", out)
	}
	out, err = sess.Run("cat /etc/hostname")
	if err != nil || !strings.Contains(out, "db-1") {
		t.Fatalf("/etc/hostname: %q %v", out, err)
	}
	// But /etc/gdbinit still resolves from the tools image.
	out, err = sess.Run("cat /etc/gdbinit")
	if err != nil || !strings.Contains(out, "pagination") {
		t.Fatalf("/etc/gdbinit: %q %v", out, err)
	}
}

func TestAttachProcVisible(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out, err := sess.Run("ps")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mysqld") {
		t.Fatalf("ps should show the app process: %q", out)
	}
}

func TestAttachEnvironmentInheritance(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Container variables are inherited...
	if v, ok := sess.Getenv("MYSQL_DATA"); !ok || v != "/var/lib/mysql" {
		t.Fatalf("MYSQL_DATA = %q, %v", v, ok)
	}
	// ...except PATH, which must come from the tools side.
	if v, _ := sess.Getenv("PATH"); v != "/usr/bin:/bin" {
		t.Fatalf("PATH = %q, want tools PATH", v)
	}
}

func TestAttachInheritsSandbox(t *testing.T) {
	h, slim, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Same cgroup as the application.
	if got := h.Procs.Cgroups.Of(sess.Proc.PID); got != slim.CgroupPath {
		t.Fatalf("cgroup = %s, want %s", got, slim.CgroupPath)
	}
	// Capabilities bounded by the docker-default profile.
	if sess.Proc.Caps.Has(vfs.CapSysAdmin) {
		t.Fatal("CAP_SYS_ADMIN must be dropped by the profile")
	}
	if !sess.Proc.Caps.Has(vfs.CapChown) {
		t.Fatal("profile-permitted capability missing")
	}
	if sess.Proc.Profile != "docker-default" {
		t.Fatalf("profile = %q", sess.Proc.Profile)
	}
	// Shares the app's pid/net/uts namespaces (tools see what the app
	// sees) but NOT its mount namespace (nested).
	appProc, _ := h.Procs.Get(slim.MainPID)
	if sess.Nested.PID != appProc.Namespaces.PID {
		t.Fatal("pid namespace must be shared")
	}
	if sess.Nested.Net != appProc.Namespaces.Net {
		t.Fatal("net namespace must be shared")
	}
	if sess.Nested.Mount == appProc.Namespaces.Mount {
		t.Fatal("mount namespace must be nested, not shared")
	}
}

func TestAttachIsolationFromApplication(t *testing.T) {
	h, slim, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Mounts made for the session must NOT appear in the app container.
	appProc, _ := h.Procs.Get(slim.MainPID)
	for _, m := range appProc.Namespaces.Mount.Mounts() {
		if strings.Contains(m.Point, ".cntr") || strings.Contains(m.Point, AppDir) {
			t.Fatalf("session mount leaked into container: %s", m.Point)
		}
	}
}

func TestAttachHostTools(t *testing.T) {
	h, _, _ := testWorld(t)
	// Install a tool on the host.
	hostCli := vfs.NewClient(h.RootFS, vfs.Root())
	if err := hostCli.WriteFile("/usr/bin/perf", []byte("ELFperf"), 0o755); err != nil {
		t.Fatal(err)
	}
	sess, err := Attach(h, Options{Container: "db"}) // no Fat: host tools
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out, err := sess.Run("which perf")
	if err != nil || !strings.Contains(out, "/usr/bin/perf") {
		t.Fatalf("which perf: %q %v", out, err)
	}
	out, err = sess.Run("cat /var/lib/cntr/etc/my.cnf")
	if err != nil || !strings.Contains(out, "mysqld") {
		t.Fatalf("app fs via host attach: %q %v", out, err)
	}
}

func TestAttachWritesReachAppContainer(t *testing.T) {
	h, slim, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Use-case: edit a config file in place (§7, first workflow).
	if _, err := sess.Run("echo tuned > /var/lib/cntr/etc/my.cnf"); err != nil {
		t.Fatal(err)
	}
	// Visible from the application container's own namespace.
	appProc, _ := h.Procs.Get(slim.MainPID)
	appCli := appProc.Client()
	got, err := appCli.ReadFile("/etc/my.cnf")
	if err != nil || !strings.Contains(string(got), "tuned") {
		t.Fatalf("app view after edit: %q %v", got, err)
	}
}

// TestAttachToolsStayInChroot: step #3 chroots the tools onto the
// temporary mount point; no path leads from there into the application's
// root other than the re-exposed /var/lib/cntr.
func TestAttachToolsStayInChroot(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// /etc/my.cnf exists in the application's root, just outside the
	// chroot, and nowhere on the tools side.
	if err := sess.Client.Symlink("/etc/my.cnf", "/abs"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Client.Symlink("../../etc/my.cnf", "/usr/rel"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/../etc/my.cnf", "/usr/bin/../../../etc/my.cnf",
		"/var/lib/cntr/../../../../etc/my.cnf", "/abs", "/usr/rel"} {
		if got, err := sess.Client.ReadFile(p); vfs.ToErrno(err) != vfs.ENOENT {
			t.Errorf("ReadFile(%q) = %q, %v: escaped the chroot", p, got, err)
		}
	}
	if got, err := sess.Client.ReadFile("/var/lib/cntr/etc/my.cnf"); err != nil || !strings.Contains(string(got), "datadir") {
		t.Fatalf("the sanctioned route: %q %v", got, err)
	}
	if got, err := sess.Client.ReadFile("/usr/bin/../../etc/gdbinit"); err != nil || !strings.Contains(string(got), "pagination") {
		t.Fatalf("dotdot inside the chroot: %q %v", got, err)
	}
}

func TestAttachEngineSelection(t *testing.T) {
	h, _, _ := testWorld(t)
	if _, err := Attach(h, Options{Container: "db", Engine: "lxc"}); err == nil {
		t.Fatal("attaching via wrong engine should fail")
	}
	sess, err := Attach(h, Options{Container: "db", Engine: "docker"})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
}

func TestAttachAllEngines(t *testing.T) {
	h := NewHost()
	img, err := container.BuildImage("app", "v1", container.ImageConfig{
		Cmd: []string{"/bin/app"},
	}, container.LayerSpec{
		ID:    "app-layer",
		Files: []container.FileSpec{{Path: "/bin/app", Size: 100, Executable: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"docker", "lxc", "rkt", "systemd-nspawn"} {
		name := "c-" + engine
		c, err := h.Runtime.Create(name, img, container.CreateOpts{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Runtime.Start(c); err != nil {
			t.Fatal(err)
		}
		sess, err := Attach(h, Options{Container: name})
		if err != nil {
			t.Fatalf("attach via %s: %v", engine, err)
		}
		if sess.Context.Engine != engine {
			t.Fatalf("resolved engine = %s, want %s", sess.Context.Engine, engine)
		}
		sess.Close()
	}
}

func TestAttachStoppedContainerFails(t *testing.T) {
	h, slim, _ := testWorld(t)
	h.Runtime.Stop(slim)
	if _, err := Attach(h, Options{Container: "db", Fat: "tools"}); err == nil {
		t.Fatal("attach to stopped container should fail")
	}
}

func TestSocketForwarding(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// An X11 server listens on the host.
	hostSockets := h.HostSockets()
	l, err := hostSockets.Listen("/tmp/.X11-unix/X0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, _ := conn.Read(buf)
		conn.Write(append([]byte("x11-reply:"), buf[:n]...))
		conn.Close()
	}()
	// Forward it into the container's network namespace.
	if err := sess.ForwardSocket("/tmp/.X11-unix/X0", "/tmp/.X11-unix/X0"); err != nil {
		t.Fatal(err)
	}
	inside := h.SocketsFor(sess.Nested.Net)
	conn, err := inside.Dial("/tmp/.X11-unix/X0")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("hello"))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "x11-reply:hello" {
		t.Fatalf("through proxy: %q %v", buf[:n], err)
	}
	conn.Close()
}

func TestInteractiveShellOverPTY(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.Interactive()
	sess.Master.Write([]byte("hostname\nexit\n"))
	buf := make([]byte, 4096)
	var out strings.Builder
	for {
		n, err := sess.Master.Read(buf)
		out.Write(buf[:n])
		if err != nil || strings.Contains(out.String(), "exit") {
			break
		}
	}
	if !strings.Contains(out.String(), "db") {
		t.Fatalf("pty transcript: %q", out.String())
	}
}

func TestShellBuiltins(t *testing.T) {
	h, _, _ := testWorld(t)
	sess, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cases := []struct {
		cmd  string
		want string
	}{
		{"pwd", "/"},
		{"echo hello world", "hello world"},
		{"id", "uid=0"},
		{"mount", AppDir},
		{"which gdb", "/usr/bin/gdb"},
		{"stat /usr/bin/gdb", "size=5000"},
		{"help", "builtins"},
	}
	for _, tc := range cases {
		out, err := sess.Run(tc.cmd)
		if err != nil {
			t.Fatalf("%s: %v", tc.cmd, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%s: %q missing %q", tc.cmd, out, tc.want)
		}
	}
	if _, err := sess.Run("mkdir /var/lib/cntr/newdir"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run("cp /etc/gdbinit /var/lib/cntr/newdir/gdbinit"); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run("cat /var/lib/cntr/newdir/gdbinit")
	if err != nil || !strings.Contains(out, "pagination") {
		t.Fatalf("cp result: %q %v", out, err)
	}
	if _, err := sess.Run("rm -r /var/lib/cntr/newdir"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run("nosuchtool"); err == nil {
		t.Fatal("unknown tool should fail")
	}
}

func TestNestedContainerAttach(t *testing.T) {
	// Future-work feature (§7): the slim container's namespaces are
	// themselves nested — attach must still work.
	h, _, _ := testWorld(t)
	sess1, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess1.Close()
	// Attach again to the same container while a session is active.
	sess2, err := Attach(h, Options{Container: "db", Fat: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	out, err := sess2.Run("ls /usr/bin")
	if err != nil || !strings.Contains(out, "gdb") {
		t.Fatalf("second session: %q %v", out, err)
	}
}
