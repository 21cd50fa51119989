package container

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"cntr/internal/caps"
	"cntr/internal/cgroup"
	"cntr/internal/namespace"
	"cntr/internal/proc"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

// State is a container's lifecycle state.
type State uint8

// Container states.
const (
	StateCreated State = iota
	StateRunning
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Container is one instance created from an image.
type Container struct {
	ID     string
	Name   string
	Engine string
	Image  *Image

	RootFS     *unionfs.FS
	Namespaces *namespace.Set
	CgroupPath string
	Profile    string
	Env        []string
	Privileged bool

	MainPID int
	State   State
}

// CreateOpts configures container creation.
type CreateOpts struct {
	// Engine is "docker", "lxc", "rkt" or "systemd-nspawn".
	Engine string
	// Privileged skips MAC confinement and keeps full capabilities.
	Privileged bool
}

// Runtime manages containers on one simulated host.
type Runtime struct {
	Procs *proc.Table
	Host  *namespace.Set

	mu         sync.Mutex
	containers map[string]*Container // by name
	byID       map[string]*Container
	nextSerial int
}

// NewRuntime builds a runtime over a host process table.
func NewRuntime(table *proc.Table, host *namespace.Set) *Runtime {
	return &Runtime{
		Procs:      table,
		Host:       host,
		containers: make(map[string]*Container),
		byID:       make(map[string]*Container),
		nextSerial: 1,
	}
}

// Engines lists the engine names, sorted.
func (rt *Runtime) Engines() []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.name
	}
	return out
}

// Create instantiates a container from an image: fresh namespaces of
// every kind but the user namespace, which it shares with the host; a
// union root filesystem; a cgroup; and the engine's default MAC profile.
func (rt *Runtime) Create(name string, img *Image, opts CreateOpts) (*Container, error) {
	if opts.Engine == "" {
		opts.Engine = "docker"
	}
	if !slices.Contains(rt.Engines(), opts.Engine) {
		return nil, fmt.Errorf("unknown engine %q: %w", opts.Engine, vfs.EINVAL)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, exists := rt.containers[name]; exists {
		return nil, vfs.EEXIST
	}
	serial := rt.nextSerial
	rt.nextSerial++
	id := fmt.Sprintf("%012x", 0xC0FFEE000000+serial)

	rootfs := img.RootFS()
	set := namespace.New(namespace.NewMountNS(rootfs), name, namespace.KindPID, namespace.KindNet,
		namespace.KindUTS, namespace.KindIPC, namespace.KindCgroup)
	set.Setns(rt.Host, namespace.KindUser)

	profile := "unconfined"
	if !opts.Privileged && opts.Engine == "docker" {
		profile = "docker-default"
	}
	cgPath := "/" + opts.Engine + "/" + id
	rt.Procs.Cgroups.Create(cgPath, cgroup.Limits{})

	c := &Container{
		ID: id, Name: name, Engine: opts.Engine, Image: img,
		RootFS: rootfs, Namespaces: set, CgroupPath: cgPath,
		Profile: profile, Privileged: opts.Privileged,
		Env:   append([]string(nil), img.Config.Env...),
		State: StateCreated,
	}
	rt.containers[name] = c
	rt.byID[id] = c
	return c, nil
}

// Start spawns the container's main process inside its namespaces.
func (rt *Runtime) Start(c *Container) error {
	if c.State == StateRunning {
		return vfs.EBUSY
	}
	cmd := c.Image.Config.Cmd
	if len(cmd) == 0 {
		cmd = []string{"/bin/sh"}
	}
	p, err := rt.Procs.Spawn(1, baseName(cmd[0]), cmd)
	if err != nil {
		return err
	}
	p.Namespaces = c.Namespaces
	p.Env = append([]string(nil), c.Env...)
	p.Cwd = "/"
	p.Profile = c.Profile
	cred := p.Cred()
	if !c.Privileged {
		caps.Lookup(c.Profile).Apply(cred)
	}
	p.Caps = cred.Caps
	if err := rt.Procs.Cgroups.Attach(p.PID, c.CgroupPath); err != nil {
		return err
	}
	c.MainPID = p.PID
	c.State = StateRunning
	return nil
}

// Stop exits the container's processes.
func (rt *Runtime) Stop(c *Container) error {
	if c.State != StateRunning {
		return vfs.EINVAL
	}
	rt.Procs.Exit(c.MainPID)
	c.MainPID = 0
	c.State = StateStopped
	return nil
}

// Remove deletes a stopped container.
func (rt *Runtime) Remove(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return vfs.ENOENT
	}
	if c.State == StateRunning {
		return vfs.EBUSY
	}
	delete(rt.containers, name)
	delete(rt.byID, c.ID)
	rt.Procs.Cgroups.Delete(c.CgroupPath)
	return nil
}

// Get fetches a container by name.
func (rt *Runtime) Get(name string) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return nil, vfs.ENOENT
	}
	return c, nil
}

// ByID fetches a container by its id or by a prefix exactly one id has,
// as rkt's unambiguous prefix: every id is as long as every other, so a
// whole id is such a prefix, and a prefix several ids share is ENOENT.
func (rt *Runtime) ByID(prefix string) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var found *Container
	for id, c := range rt.byID {
		if strings.HasPrefix(id, prefix) {
			if found != nil {
				return nil, vfs.ENOENT
			}
			found = c
		}
	}
	if found == nil {
		return nil, vfs.ENOENT
	}
	return found, nil
}

// Exec spawns an extra process inside a running container (docker exec).
func (rt *Runtime) Exec(c *Container, comm string, cmdline []string) (*proc.Process, error) {
	if c.State != StateRunning {
		return nil, vfs.ESRCH
	}
	p, err := rt.Procs.Spawn(c.MainPID, comm, cmdline)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func baseName(path string) string {
	parts := vfs.SplitPath(path)
	if len(parts) == 0 {
		return path
	}
	return parts[len(parts)-1]
}
