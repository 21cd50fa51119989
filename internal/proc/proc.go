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

// Table is the system process table.
type Table struct {
	mu      sync.RWMutex
	procs   map[int]*Process
	nextPID int
	// Cgroups is the cgroup hierarchy pids are attached to.
	Cgroups *cgroup.Hierarchy
}

// NewTable returns a table containing pid 1 (init) in the given host
// namespaces.
func NewTable(host *namespace.Set) *Table {
	t := &Table{
		procs:   make(map[int]*Process),
		nextPID: 2,
		Cgroups: cgroup.New(),
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

// Exit removes the process from the table and its cgroup.
func (t *Table) Exit(pid int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return vfs.ESRCH
	}
	p.exited = true
	delete(t.procs, pid)
	t.Cgroups.Remove(pid)
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
// filesystem: /proc/<pid>/{attr_current,cgroup,cmdline,environ,mounts,
// status} and /proc/<pid>/ns/<kind>. Cntr bind-mounts such a snapshot
// into the nested namespace so tools can observe the container's
// processes.
func (t *Table) Snapshot() *memfs.FS {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pid, p := range t.procs {
		dir := fmt.Sprintf("/%d", pid)
		cli.MkdirAll(dir, 0o555)
		cli.WriteFile(dir+"/status", []byte(renderStatus(t, p)), 0o444)
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
