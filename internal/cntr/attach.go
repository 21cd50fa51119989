package cntr

import (
	"fmt"
	"strings"

	"cntr/internal/caps"
	"cntr/internal/container"
	"cntr/internal/namespace"
	"cntr/internal/proc"
	"cntr/internal/pty"
	"cntr/internal/socketproxy"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// tmpMountPoint is the temporary directory CntrFS is mounted on inside
// the nested namespace before it becomes the root via chroot (TMP/ in
// §3.2.3).
const tmpMountPoint = "/.cntr-tmp"

// AppDir is where the application container's filesystem reappears
// inside the nested namespace.
const AppDir = "/var/lib/cntr"

// Options selects what to attach and where the tools come from.
type Options struct {
	// Container is the slim container reference (name or id), resolved
	// through every engine.
	Container string
	// Fat is the name of the fat container providing tools; empty uses
	// the host filesystem instead.
	Fat string
}

// Context is the container execution context gathered in step #1 from
// /proc — everything needed to recreate the sandbox (§3.2.1).
type Context struct {
	PID        int
	Engine     string
	Namespaces *namespace.Set
	CgroupPath string
	Profile    *caps.Profile
	Caps       vfs.CapSet
	Env        []string
	UID, GID   uint32
}

// Session is a live attach: the injected process, its nested namespace,
// the CntrFS plumbing and the interactive shell.
type Session struct {
	Host    *Host
	Context *Context

	Proc   *proc.Process
	Nested *namespace.Set
	Client *vfs.Client

	// Mount is the CntrFS mount serving the tools filesystem: server,
	// connection and kernel-side cache, as stack.NewMount builds it.
	Mount *stack.Mount

	Master *pty.Master
	slave  *pty.Slave
	shell  *Shell

	proxies []*socketproxy.Proxy
	closed  bool
}

// Attach performs the four-step workflow of §3.2 and returns a live
// session.
func Attach(h *Host, opts Options) (_ *Session, err error) {
	// Step #1: resolve the container name to a pid and gather the
	// container context from /proc.
	ctx, err := resolveContext(h, opts.Container)
	if err != nil {
		return nil, fmt.Errorf("cntr: resolving %q: %w", opts.Container, err)
	}

	// Step #2: launch the CntrFS server — inside the fat container when
	// one is named, otherwise on the host. The server serves the tools
	// filesystem. The FUSE control fd must be opened *before* attaching:
	// inside the container's mount namespace /dev/fuse may not exist, so
	// the mount is made now.
	toolsFS, toolsEnv, err := toolsRoot(h, opts.Fat)
	if err != nil {
		return nil, fmt.Errorf("cntr: locating tools: %w", err)
	}
	mount := stack.NewMount(toolsFS, h.Clock, h.Model, stack.Config{})
	// Any failure below tears the mount down again.
	defer func() {
		if err != nil {
			mount.Close()
		}
	}()

	// Step #3: initialize the tools namespace. Fork, join the target's
	// namespaces and cgroup, build the nested mount namespace, mount
	// CntrFS at TMP/, re-expose the app filesystem, bind special files,
	// then chroot.
	child, err := h.Procs.Spawn(1, "cntr", []string{"cntr", "attach", opts.Container})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			h.Procs.Exit(child.PID)
		}
	}()
	// setns(2) into every namespace of the target...
	nested := child.Namespaces
	nested.SetnsAll(ctx.Namespaces)
	// ...then unshare a nested mount namespace. Cntr makes every mount
	// in it private first, so the session's mounts never propagate back
	// to the application (§3.2.3); here every mount is private already,
	// so the copy alone keeps them invisible to it.
	nestedMount := ctx.Namespaces.Mount.Clone()
	nested.Mount = nestedMount
	// Join the container's cgroup.
	if err := h.Procs.Cgroups.Attach(child.PID, ctx.CgroupPath); err != nil {
		return nil, err
	}

	// Mount CntrFS on the temporary mount point.
	nestedMount.Mount(tmpMountPoint, mount.Kernel, vfs.RootIno, false)
	// Re-expose every pre-existing container mount under TMP/var/lib/cntr.
	rootMount, _ := ctx.Namespaces.Mount.MountAt("/")
	nestedMount.Mount(tmpMountPoint+AppDir, rootMount.FS, rootMount.Root, false)
	for _, m := range ctx.Namespaces.Mount.Mounts() {
		if m.Point == "/" {
			continue
		}
		nestedMount.Mount(tmpMountPoint+AppDir+m.Point, m.FS, m.Root, m.ReadOnly)
	}
	// The shell runs as root inside the container's user namespace.
	cred := &vfs.Cred{Caps: vfs.FullCapSet()}
	// Drop capabilities by applying the container's MAC profile, and
	// restrict to the container's capability set: the tools must not
	// escape the sandbox.
	ctx.Profile.Apply(cred)
	cred.Caps = cred.Caps.Intersect(ctx.Caps)
	child.Caps = cred.Caps
	child.Profile = ctx.Profile.Name
	// Bind the pseudo filesystems and per-container config files over
	// the tools view: /proc (so tools can see and trace the app, and the
	// session itself as it now is), /dev, /etc/passwd, /etc/hostname.
	procSnap := h.Procs.Snapshot()
	nestedMount.Mount(tmpMountPoint+"/proc", procSnap, vfs.RootIno, false)
	appOp := vfs.RootOp()
	for _, special := range []string{"/dev", "/etc/passwd", "/etc/hostname"} {
		src, rerr := ctx.Namespaces.Mount.Resolve(appOp, special)
		if rerr != nil {
			continue // absent in this container; skip
		}
		nestedMount.Mount(tmpMountPoint+special, src.FS, src.Ino, false)
	}

	// Atomically pivot into the new hierarchy: chroot(TMP).
	nsCli := namespace.NewClient(nestedMount, cred)
	chrooted, err := nsCli.Chroot(tmpMountPoint)
	if err != nil {
		return nil, err
	}

	// Apply the container's environment — except PATH, which comes from
	// the tools side since the shell must find the tools (§3.2.3).
	env := applyEnv(ctx.Env, toolsEnv)
	child.Env = env

	// Step #4: interactive shell on a pseudo-TTY.
	master, slave := pty.New()
	sess := &Session{
		Host: h, Context: ctx,
		Proc: child, Nested: nested, Client: chrooted,
		Mount: mount, Master: master, slave: slave,
	}
	sess.shell = NewShell(sess)
	return sess, nil
}

// resolveContext is step #1: name → pid → full container context.
func resolveContext(h *Host, ref string) (*Context, error) {
	pid, engineName, err := container.ResolveAnyEngine(h.Runtime, ref)
	if err != nil {
		return nil, err
	}
	p, err := h.Procs.Get(pid)
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		PID:        pid,
		Engine:     engineName,
		Namespaces: p.Namespaces,
		CgroupPath: h.Procs.Cgroups.Of(pid),
		Profile:    caps.Lookup(p.Profile),
		Caps:       p.Caps,
		Env:        append([]string(nil), p.Env...),
		UID:        p.UID,
		GID:        p.GID,
	}
	return ctx, nil
}

// toolsRoot locates the filesystem the CntrFS server exports: the fat
// container's root, or the host's.
func toolsRoot(h *Host, fat string) (vfs.FS, []string, error) {
	if fat == "" {
		m, _ := h.NS.Mount.MountAt("/")
		return m.FS, []string{"PATH=/usr/bin:/bin:/usr/sbin:/sbin"}, nil
	}
	c, err := h.Runtime.Get(fat)
	if err != nil {
		return nil, nil, err
	}
	m, ok := c.Namespaces.Mount.MountAt("/")
	if !ok {
		return nil, nil, vfs.ENOENT
	}
	env := c.Env
	hasPath := false
	for _, kv := range env {
		if strings.HasPrefix(kv, "PATH=") {
			hasPath = true
		}
	}
	if !hasPath {
		env = append(env, "PATH=/usr/bin:/bin")
	}
	return m.FS, env, nil
}

// applyEnv merges the container environment with the tools PATH: all
// container variables win except PATH, which is inherited from the
// tools environment.
func applyEnv(containerEnv, toolsEnv []string) []string {
	out := make([]string, 0, len(containerEnv)+1)
	for _, kv := range containerEnv {
		if strings.HasPrefix(kv, "PATH=") {
			continue
		}
		out = append(out, kv)
	}
	for _, kv := range toolsEnv {
		if strings.HasPrefix(kv, "PATH=") {
			out = append(out, kv)
			break
		}
	}
	return out
}

// Getenv reads a variable from the session's environment.
func (s *Session) Getenv(key string) (string, bool) {
	for _, kv := range s.Proc.Env {
		if strings.HasPrefix(kv, key+"=") {
			return kv[len(key)+1:], true
		}
	}
	return "", false
}

// ForwardSocket proxies a Unix socket from inside the session's network
// namespace to a socket on the host (X11/D-Bus forwarding, §3.2.4).
func (s *Session) ForwardSocket(insidePath, hostPath string) error {
	inside := s.Host.SocketsFor(s.Nested.ID(namespace.KindNet))
	host := s.Host.HostSockets()
	p, err := socketproxy.NewProxy(inside, insidePath, host, hostPath, s.Host.Clock, s.Host.Model)
	if err != nil {
		return err
	}
	s.proxies = append(s.proxies, p)
	return nil
}

// Run executes one command line in the session's shell and returns its
// output (convenience API used by tests and examples; Interactive runs
// the same shell over the pty).
func (s *Session) Run(line string) (string, error) {
	return s.shell.Run(line)
}

// Interactive pumps the shell over the pseudo-TTY until the input side
// closes or the shell exits. Callers write command lines to Master and
// read output back; once the shell is done, Master reads end with EOF.
func (s *Session) Interactive() {
	go func() {
		s.shell.Serve(s.slave)
		s.slave.Close()
	}()
}

// Close tears the session down: proxies, pty, process, FUSE mount.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, p := range s.proxies {
		p.Close()
	}
	s.Master.Close()
	s.Host.Procs.Exit(s.Proc.PID)
	s.Mount.Close()
}
