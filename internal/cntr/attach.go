package cntr

import (
	"encoding/json"
	"fmt"
	"strings"

	"cntr/internal/cachesvc"
	"cntr/internal/caps"
	"cntr/internal/container"
	"cntr/internal/fuse"
	"cntr/internal/namespace"
	"cntr/internal/policy"
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
	// Container is the slim container reference (name or id).
	Container string
	// Engine optionally pins the container engine; empty tries all.
	Engine string
	// Fat is the name of the fat container providing tools; empty uses
	// the host filesystem instead.
	Fat string
	// Mount overrides the FUSE mount options (defaults to the fully
	// optimized configuration).
	Mount *fuse.MountOptions
	// EffectiveUser is the uid/gid the injected shell runs as (0 = root
	// inside the container's user namespace).
	EffectiveUser uint32
	// Trace, when set, receives every operation served by this mount:
	// a Tracer is inserted into the served filesystem's interceptor
	// chain with its Sink pointed at the collector, and the collector's
	// activity profile is exposed as /proc/policy/<container> inside
	// the session. Delivery is synchronous — the view is read live, so
	// an operation is in it by the time the operation returns.
	Trace *policy.Collector
	// Enforce, when set, inserts a policy.Enforcer ahead of the served
	// filesystem: operations outside the profile fail with EACCES (or,
	// with EnforceAudit, are recorded as violations and let through).
	Enforce      *policy.Profile
	EnforceAudit bool
	// EnforceBaseline, when set alongside Enforce, is the profile the
	// enforced one was derived from (the previous generation); the
	// policy view then reports the structured diff between them as its
	// last_diff summary.
	EnforceBaseline *policy.Profile
	// CacheService, when set, attaches the session to a shared cache
	// tier: epoch leases are acquired at attach time (one per shard
	// group) and released on Close. The session exposes the client as
	// Session.Mount.CacheCl; a lease that expires mid-session fences
	// that mount's tier publishes until CacheCl.Reattach.
	CacheService *cachesvc.Service
	// CacheMountID names this session to the cache service; defaults to
	// the container reference.
	CacheMountID string
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
	Target  *container.Container
	Context *Context

	Proc   *proc.Process
	Nested *namespace.Set
	Client *vfs.Client

	// Mount is the CntrFS mount serving the tools filesystem: server,
	// connection, kernel-side cache and (with Options.CacheService) the
	// cache-tier client.
	Mount *stack.Mount
	// Enforcer is the live policy enforcer when Options.Enforce was
	// set; its Denials/Violations expose what the policy blocked.
	Enforcer *policy.Enforcer
	// Tracer is the mount's trace source when Options.Trace was set.
	Tracer *vfs.Tracer

	Master *pty.Master
	slave  *pty.Slave
	shell  *Shell

	proxies []*socketproxy.Proxy
	// removeIOSource unregisters this mount's /proc io feed on Close;
	// removeExitHook and removePolicyView undo the other process-table
	// registrations the attach made.
	removeIOSource   func()
	removeExitHook   func()
	removePolicyView func()
	closed           bool
}

// Attach performs the four-step workflow of §3.2 and returns a live
// session.
func Attach(h *Host, opts Options) (_ *Session, err error) {
	// Step #1: resolve the container name to a pid and gather the
	// container context from /proc.
	ctx, target, err := resolveContext(h, opts)
	if err != nil {
		return nil, fmt.Errorf("cntr: resolving %q: %w", opts.Container, err)
	}

	// The FUSE control fd must be opened *before* attaching: inside the
	// container's mount namespace /dev/fuse may not exist. We model this
	// by mounting now. The cache-tier leases are taken with the mount and
	// exist for its whole lifetime.
	cfg := stack.Config{CacheService: opts.CacheService, CacheMountID: opts.CacheMountID}
	if cfg.CacheMountID == "" {
		cfg.CacheMountID = opts.Container
	}
	if opts.Mount != nil {
		cfg.Mount = *opts.Mount
	}

	// Step #2: launch the CntrFS server — inside the fat container when
	// one is named, otherwise on the host. The server serves the tools
	// filesystem.
	toolsFS, toolsEnv, err := toolsRoot(h, opts.Fat)
	if err != nil {
		return nil, fmt.Errorf("cntr: locating tools: %w", err)
	}
	// The served filesystem is wrapped in the policy interceptors the
	// caller asked for. The tracer is outermost so it also records
	// operations the enforcer denies — with EACCES as their outcome —
	// which is what makes denials auditable through the activity view.
	var ics []vfs.Interceptor
	var tracer *vfs.Tracer
	if opts.Trace != nil {
		// Each mount gets its own path-learning scope: inode numbers are
		// only meaningful within one mount, and a shared collector may be
		// tracing several attached containers at once.
		tracer = vfs.NewTracer(0)
		tracer.Sink = opts.Trace.NewRun().Sink
		ics = append(ics, tracer)
	}
	var enforcer *policy.Enforcer
	if opts.Enforce != nil {
		enforcer = policy.NewEnforcer(opts.Enforce, opts.EnforceAudit)
		ics = append(ics, enforcer)
	}
	mount := stack.NewMount(toolsFS, h.Clock, h.Model, cfg, ics...)
	// Any failure below tears the mount down again, leases included.
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
	child.Namespaces.SetnsAll(ctx.Namespaces)
	// ...then unshare a nested mount namespace so our mounts stay
	// invisible to the application (all mount points private).
	nestedMount := ctx.Namespaces.Mount.Clone()
	nestedMount.MakeAllPrivate()
	nested := ctx.Namespaces.Clone()
	nested.Mount = nestedMount
	child.Namespaces = nested
	// Join the container's cgroup.
	if err := h.Procs.Cgroups.Attach(child.PID, ctx.CgroupPath); err != nil {
		return nil, err
	}

	// Mount CntrFS on the temporary mount point.
	if err := nestedMount.Mount(tmpMountPoint, mount.Kernel, vfs.RootIno, namespace.PropPrivate, false); err != nil {
		return nil, err
	}
	// Re-expose every pre-existing container mount under TMP/var/lib/cntr.
	rootMount, _ := ctx.Namespaces.Mount.MountAt("/")
	nestedMount.Mount(tmpMountPoint+AppDir, rootMount.FS, rootMount.Root, namespace.PropPrivate, false)
	for _, m := range ctx.Namespaces.Mount.Mounts() {
		if m.Point == "/" {
			continue
		}
		nestedMount.Mount(tmpMountPoint+AppDir+m.Point, m.FS, m.Root, namespace.PropPrivate, m.ReadOnly)
	}
	// Bind the pseudo filesystems and per-container config files over
	// the tools view: /proc (so tools can see and trace the app), /dev,
	// /etc/passwd, /etc/hostname.
	procSnap := h.Procs.Snapshot()
	nestedMount.Mount(tmpMountPoint+"/proc", procSnap, vfs.RootIno, namespace.PropPrivate, false)
	appOp := vfs.RootOp()
	for _, special := range []string{"/dev", "/etc/passwd", "/etc/hostname"} {
		src, rerr := ctx.Namespaces.Mount.Resolve(appOp, special)
		if rerr != nil {
			continue // absent in this container; skip
		}
		nestedMount.Mount(tmpMountPoint+special, src.FS, src.Ino, namespace.PropPrivate, false)
	}

	// Atomically pivot into the new hierarchy: chroot(TMP).
	cred := &vfs.Cred{
		UID: opts.EffectiveUser, GID: opts.EffectiveUser,
		FSUID: opts.EffectiveUser, FSGID: opts.EffectiveUser,
		Caps: vfs.FullCapSet(),
	}
	// Drop capabilities by applying the container's MAC profile, and
	// restrict to the container's capability set: the tools must not
	// escape the sandbox.
	ctx.Profile.Apply(cred)
	cred.Caps = cred.Caps.Intersect(ctx.Caps)
	child.Caps = cred.Caps
	child.Profile = ctx.Profile.Name
	nsCli := namespace.NewClient(nestedMount, cred)
	chrooted, err := nsCli.Chroot(tmpMountPoint)
	if err != nil {
		return nil, err
	}

	// Apply the container's environment — except PATH, which comes from
	// the tools side since the shell must find the tools (§3.2.3).
	env := applyEnv(ctx.Env, toolsEnv)
	child.Env = env
	child.UID, child.GID = opts.EffectiveUser, opts.EffectiveUser

	// Step #4: interactive shell on a pseudo-TTY.
	master, slave := pty.New()
	// Feed the server's per-origin (Op.PID) request-table counters into
	// the process table, so /proc/<pid>/io in the next snapshot shows
	// which process moved how much data through this mount. Registered
	// last — every fallible attach step is behind us — so no error path
	// can leave a feed pointing at a torn-down mount; Session.Close
	// unregisters it.
	removeIOSource := h.Procs.AddIOSource(func() map[uint32]proc.IOCounters {
		stats := mount.Server.OriginStats()
		out := make(map[uint32]proc.IOCounters, len(stats))
		for pid, s := range stats {
			out[pid] = proc.IOCounters{
				ReadBytes:  s.ReadBytes,
				WriteBytes: s.WriteBytes,
				ReadOps:    s.ReadOps,
				WriteOps:   s.WriteOps,
				Ops:        s.Ops,
			}
		}
		return out
	})
	// When a process exits, fold its per-origin request-table counters
	// into the aggregate bucket: accounting stays bounded by live
	// processes instead of growing with every PID the mount ever served.
	removeExitHook := h.Procs.AddExitHook(func(pid int) {
		mount.Server.RetireOrigin(uint32(pid))
	})
	var removePolicyView func()
	if opts.Trace != nil || opts.Enforce != nil {
		removePolicyView = h.Procs.AddPolicyView(opts.Container, policyView(opts))
	}
	sess := &Session{
		Host: h, Target: target, Context: ctx,
		Proc: child, Nested: nested, Client: chrooted,
		Mount: mount, Enforcer: enforcer, Tracer: tracer,
		Master: master, slave: slave,
		removeIOSource:   removeIOSource,
		removeExitHook:   removeExitHook,
		removePolicyView: removePolicyView,
	}
	sess.shell = NewShell(sess)
	return sess, nil
}

// policyView builds the /proc/policy/<container> renderer. The view
// carries the enforced profile's lifecycle header (version, generation,
// merge provenance) and the structured-diff summary against
// EnforceBaseline when one was given, and the collector's live activity
// snapshot when recording — so one file answers "what policy is this
// container under, and where did it come from".
func policyView(opts Options) func() []byte {
	var lastDiff string
	if opts.Enforce != nil && opts.EnforceBaseline != nil {
		lastDiff = policy.Diff(opts.EnforceBaseline, opts.Enforce).Summary()
	}
	return func() []byte {
		view := make(map[string]any)
		if p := opts.Enforce; p != nil {
			view["profile"] = map[string]any{
				"version":     p.Version,
				"generation":  p.Generation,
				"runs":        p.Runs,
				"source_runs": p.SourceRuns,
			}
			if lastDiff != "" {
				view["last_diff"] = lastDiff
			}
		}
		if opts.Trace != nil {
			view["activity"] = json.RawMessage(opts.Trace.RenderJSON())
		}
		b, err := json.MarshalIndent(view, "", "  ")
		if err != nil {
			return []byte("{}\n")
		}
		return append(b, '\n')
	}
}

// resolveContext is step #1: name → pid → full container context.
func resolveContext(h *Host, opts Options) (*Context, *container.Container, error) {
	var pid int
	var engineName string
	var err error
	if opts.Engine != "" {
		eng, eerr := h.Runtime.Engine(opts.Engine)
		if eerr != nil {
			return nil, nil, eerr
		}
		pid, err = eng.ResolvePID(opts.Container)
		engineName = opts.Engine
	} else {
		pid, engineName, err = container.ResolveAnyEngine(h.Runtime, opts.Container)
	}
	if err != nil {
		return nil, nil, err
	}
	p, err := h.Procs.Get(pid)
	if err != nil {
		return nil, nil, err
	}
	target, _ := h.Runtime.Get(opts.Container)
	if target == nil {
		target, _ = h.Runtime.ByID(opts.Container)
	}
	ctx := &Context{
		PID:        pid,
		Engine:     engineName,
		Namespaces: p.Namespaces,
		CgroupPath: h.Procs.Cgroups.Of(pid),
		Profile:    h.Procs.Profiles.Get(p.Profile),
		Caps:       p.Caps,
		Env:        append([]string(nil), p.Env...),
		UID:        p.UID,
		GID:        p.GID,
	}
	return ctx, target, nil
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
	inside := s.Host.SocketsFor(s.Nested.Net)
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
// closes. Callers write command lines to Master and read output back.
func (s *Session) Interactive() {
	go s.shell.Serve(s.slave)
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
	if s.removeIOSource != nil {
		s.removeIOSource()
	}
	if s.removeExitHook != nil {
		s.removeExitHook()
	}
	if s.removePolicyView != nil {
		s.removePolicyView()
	}
}
