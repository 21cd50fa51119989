// Package proc models the process table and the /proc filesystem views
// Cntr's attach workflow depends on: container runtimes report a main
// pid, and Cntr reads /proc/<pid>/ to gather the process's namespaces,
// environment, capabilities, cgroup and MAC profile before injecting
// itself (§3.2.1).
package proc

import (
	"fmt"
	"strings"
	"sync"

	"cntr/internal/caps"
	"cntr/internal/cgroup"
	"cntr/internal/memfs"
	"cntr/internal/namespace"
	"cntr/internal/vfs"
)

// Process is one simulated task.
type Process struct {
	PID     int
	PPID    int
	UID     uint32
	GID     uint32
	Comm    string
	Cmdline []string
	Env     []string // KEY=VALUE pairs
	Cwd     string

	// Namespaces is the process's nsproxy.
	Namespaces *namespace.Set
	// Caps is the effective capability set.
	Caps vfs.CapSet
	// Profile is the MAC profile name confining the process.
	Profile string
	// FSizeLimit is RLIMIT_FSIZE (0 = unlimited).
	FSizeLimit int64

	exited bool
}

// Cred derives the filesystem credential the process operates with.
func (p *Process) Cred() *vfs.Cred {
	return &vfs.Cred{
		UID: p.UID, GID: p.GID, FSUID: p.UID, FSGID: p.GID,
		Caps: p.Caps, FSizeLimit: p.FSizeLimit,
	}
}

// Client returns a mount-aware filesystem client for the process. Its
// operations carry the process id, so per-operation records (policy.Run)
// can be attributed back to the process.
func (p *Process) Client() *vfs.Client {
	c := namespace.NewClient(p.Namespaces.Mount, p.Cred())
	c.Op.PID = uint32(p.PID)
	return c
}

// Getenv fetches one environment variable.
func (p *Process) Getenv(key string) (string, bool) {
	for _, kv := range p.Env {
		if strings.HasPrefix(kv, key+"=") {
			return kv[len(key)+1:], true
		}
	}
	return "", false
}

// IOCounters is /proc/<pid>/io-style accounting for one process: bytes
// and operations that crossed the filesystem boundary on its behalf.
type IOCounters struct {
	ReadBytes  int64 // rchar
	WriteBytes int64 // wchar
	ReadOps    int64 // syscr
	WriteOps   int64 // syscw
	Ops        int64 // every filesystem request, data or metadata
}

// Table is the system process table.
type Table struct {
	mu      sync.RWMutex
	procs   map[int]*Process
	nextPID int
	// Cgroups is the cgroup hierarchy pids are attached to.
	Cgroups *cgroup.Hierarchy
	// Profiles is the loaded MAC policy set.
	Profiles *caps.Registry
	// ioSources supply per-PID I/O counters for the /proc/<pid>/io view;
	// Snapshot sums them. The canonical feed is a FUSE request table's
	// per-origin accounting (fuse.Server.OriginStats), keyed by the
	// Op.PID every operation carries across the wire — one source per
	// mounted CntrFS instance.
	ioMu      sync.Mutex
	ioSources map[int]func() map[uint32]IOCounters
	ioNextID  int

	// exitHooks run after a process is removed from the table; FUSE
	// request tables use them to retire the exited origin's accounting.
	hookMu     sync.Mutex
	exitHooks  map[int]func(pid int)
	hookNextID int

	// policyViews render per-container activity profiles into the /proc
	// snapshot (as /policy/<name>), so tools inside the namespace can
	// read the traced profile the same way they read /proc/<pid>/io.
	policyMu     sync.Mutex
	policyViews  map[int]policyView
	policyNextID int
}

// policyView is one registered profile renderer.
type policyView struct {
	name   string
	render func() []byte
}

// AddIOSource registers a per-PID I/O counter feed (e.g. one CntrFS
// server's request-table accounting). Snapshot sums all feeds into the
// /proc/<pid>/io files. The returned func unregisters the feed; call it
// when the mount behind it goes away, or the table keeps the source (and
// whatever it closes over) alive forever.
func (t *Table) AddIOSource(src func() map[uint32]IOCounters) (remove func()) {
	t.ioMu.Lock()
	id := t.ioNextID
	t.ioNextID++
	if t.ioSources == nil {
		t.ioSources = make(map[int]func() map[uint32]IOCounters)
	}
	t.ioSources[id] = src
	t.ioMu.Unlock()
	return func() {
		t.ioMu.Lock()
		delete(t.ioSources, id)
		t.ioMu.Unlock()
	}
}

// AddExitHook registers a function to run after a process exits and is
// removed from the table. The canonical consumer is a FUSE mount's
// request table, which folds the exited origin's per-PID accounting
// into an aggregate bucket so its stats map stays bounded by live
// processes. The returned func unregisters the hook.
func (t *Table) AddExitHook(fn func(pid int)) (remove func()) {
	t.hookMu.Lock()
	id := t.hookNextID
	t.hookNextID++
	if t.exitHooks == nil {
		t.exitHooks = make(map[int]func(pid int))
	}
	t.exitHooks[id] = fn
	t.hookMu.Unlock()
	return func() {
		t.hookMu.Lock()
		delete(t.exitHooks, id)
		t.hookMu.Unlock()
	}
}

// AddPolicyView registers a named activity-profile renderer; Snapshot
// writes its output to /policy/<name>. The returned func unregisters it.
func (t *Table) AddPolicyView(name string, render func() []byte) (remove func()) {
	t.policyMu.Lock()
	id := t.policyNextID
	t.policyNextID++
	if t.policyViews == nil {
		t.policyViews = make(map[int]policyView)
	}
	t.policyViews[id] = policyView{name: name, render: render}
	t.policyMu.Unlock()
	return func() {
		t.policyMu.Lock()
		delete(t.policyViews, id)
		t.policyMu.Unlock()
	}
}

// ioCounters merges every registered source.
func (t *Table) ioCounters() map[uint32]IOCounters {
	t.ioMu.Lock()
	sources := make([]func() map[uint32]IOCounters, 0, len(t.ioSources))
	for _, src := range t.ioSources {
		sources = append(sources, src)
	}
	t.ioMu.Unlock()
	out := make(map[uint32]IOCounters)
	for _, src := range sources {
		for pid, c := range src() {
			sum := out[pid]
			sum.ReadBytes += c.ReadBytes
			sum.WriteBytes += c.WriteBytes
			sum.ReadOps += c.ReadOps
			sum.WriteOps += c.WriteOps
			sum.Ops += c.Ops
			out[pid] = sum
		}
	}
	return out
}

// NewTable returns a table containing pid 1 (init) in the given host
// namespaces.
func NewTable(host *namespace.Set) *Table {
	t := &Table{
		procs:    make(map[int]*Process),
		nextPID:  2,
		Cgroups:  cgroup.New(),
		Profiles: caps.NewRegistry(),
	}
	init := &Process{
		PID: 1, PPID: 0, Comm: "init", Cmdline: []string{"/sbin/init"},
		Namespaces: host, Caps: vfs.FullCapSet(), Profile: "unconfined",
		Cwd: "/",
	}
	t.procs[1] = init
	t.Cgroups.Attach(1, "/")
	return t
}

// Spawn forks a child of parent with the given command. The child
// inherits the parent's namespaces, credentials, capability set, profile
// and environment unless the caller mutates the returned process (before
// it is observed by others, as exec would).
func (t *Table) Spawn(parentPID int, comm string, cmdline []string) (*Process, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.procs[parentPID]
	if !ok || parent.exited {
		return nil, vfs.ESRCH
	}
	pid := t.nextPID
	t.nextPID++
	child := &Process{
		PID: pid, PPID: parentPID, UID: parent.UID, GID: parent.GID,
		Comm: comm, Cmdline: cmdline,
		Env:        append([]string(nil), parent.Env...),
		Cwd:        parent.Cwd,
		Namespaces: parent.Namespaces.Clone(),
		Caps:       parent.Caps,
		Profile:    parent.Profile,
		FSizeLimit: parent.FSizeLimit,
	}
	t.procs[pid] = child
	t.Cgroups.Attach(pid, t.Cgroups.Of(parentPID))
	return child, nil
}

// Exit removes the process from the table and its cgroup,
// then runs the registered exit hooks (outside the table lock, so a hook
// may call back into the table).
func (t *Table) Exit(pid int) error {
	t.mu.Lock()
	p, ok := t.procs[pid]
	if !ok {
		t.mu.Unlock()
		return vfs.ESRCH
	}
	p.exited = true
	delete(t.procs, pid)
	t.Cgroups.Remove(pid)
	t.mu.Unlock()

	t.hookMu.Lock()
	hooks := make([]func(int), 0, len(t.exitHooks))
	for _, fn := range t.exitHooks {
		hooks = append(hooks, fn)
	}
	t.hookMu.Unlock()
	for _, fn := range hooks {
		fn(pid)
	}
	return nil
}

// Get returns the process with the given pid.
func (t *Table) Get(pid int) (*Process, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.procs[pid]
	if !ok {
		return nil, vfs.ESRCH
	}
	return p, nil
}

// Snapshot materializes a /proc view of the table into a fresh in-memory
// filesystem: /proc/<pid>/{status,cmdline,environ,cgroup,mounts} and
// /proc/<pid>/ns/<kind>. Cntr bind-mounts such a snapshot into the nested
// namespace so tools can observe the container's processes.
func (t *Table) Snapshot() *memfs.FS {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	io := t.ioCounters()
	t.policyMu.Lock()
	views := make([]policyView, 0, len(t.policyViews))
	for _, v := range t.policyViews {
		views = append(views, v)
	}
	t.policyMu.Unlock()
	if len(views) > 0 {
		cli.MkdirAll("/policy", 0o555)
		for _, v := range views {
			cli.WriteFile("/policy/"+v.name, v.render(), 0o444)
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pid, p := range t.procs {
		dir := fmt.Sprintf("/%d", pid)
		cli.MkdirAll(dir, 0o555)
		cli.WriteFile(dir+"/status", []byte(renderStatus(t, p)), 0o444)
		cli.WriteFile(dir+"/io", []byte(renderIO(io[uint32(pid)])), 0o444)
		cli.WriteFile(dir+"/cmdline", []byte(strings.Join(p.Cmdline, "\x00")), 0o444)
		cli.WriteFile(dir+"/environ", []byte(strings.Join(p.Env, "\x00")), 0o444)
		cli.WriteFile(dir+"/cgroup", []byte("0::"+t.Cgroups.Of(pid)+"\n"), 0o444)
		cli.WriteFile(dir+"/attr_current", []byte(p.Profile+"\n"), 0o444)
		var mounts strings.Builder
		for _, m := range p.Namespaces.Mount.Mounts() {
			opt := "rw"
			if m.ReadOnly {
				opt = "ro"
			}
			fmt.Fprintf(&mounts, "none %s vfs %s 0 0\n", m.Point, opt)
		}
		cli.WriteFile(dir+"/mounts", []byte(mounts.String()), 0o444)
		cli.MkdirAll(dir+"/ns", 0o555)
		for k := namespace.Kind(0); int(k) < namespace.NumKinds; k++ {
			cli.WriteFile(fmt.Sprintf("%s/ns/%s", dir, k),
				[]byte(fmt.Sprintf("%s:[%d]", k, p.Namespaces.ID(k))), 0o444)
		}
	}
	return fs
}

// renderIO formats per-process I/O accounting with /proc/<pid>/io's
// field names (plus a total-operation count the request table knows).
func renderIO(c IOCounters) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rchar: %d\n", c.ReadBytes)
	fmt.Fprintf(&b, "wchar: %d\n", c.WriteBytes)
	fmt.Fprintf(&b, "syscr: %d\n", c.ReadOps)
	fmt.Fprintf(&b, "syscw: %d\n", c.WriteOps)
	fmt.Fprintf(&b, "syscalls: %d\n", c.Ops)
	return b.String()
}

func renderStatus(t *Table, p *Process) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Name:\t%s\n", p.Comm)
	fmt.Fprintf(&b, "Pid:\t%d\n", p.PID)
	fmt.Fprintf(&b, "PPid:\t%d\n", p.PPID)
	fmt.Fprintf(&b, "Uid:\t%d\t%d\t%d\t%d\n", p.UID, p.UID, p.UID, p.UID)
	fmt.Fprintf(&b, "Gid:\t%d\t%d\t%d\t%d\n", p.GID, p.GID, p.GID, p.GID)
	fmt.Fprintf(&b, "CapEff:\t%016x\n", uint32(p.Caps))
	return b.String()
}
