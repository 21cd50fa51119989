package container

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
	// Env is appended to the image's environment.
	Env []string
	// Privileged skips MAC confinement and keeps full capabilities.
	Privileged bool
	// UIDMapBase, when non-zero, creates a user namespace mapping
	// container uid 0 to this host uid (65536 ids).
	UIDMapBase uint32
}

// Runtime manages containers on one simulated host.
type Runtime struct {
	Procs *proc.Table
	Host  *namespace.Set

	mu         sync.Mutex
	containers map[string]*Container // by name
	byID       map[string]*Container
	nextSerial int
	engines    map[string]Engine
}

// NewRuntime builds a runtime over a host process table.
func NewRuntime(table *proc.Table, host *namespace.Set) *Runtime {
	rt := &Runtime{
		Procs:      table,
		Host:       host,
		containers: make(map[string]*Container),
		byID:       make(map[string]*Container),
		nextSerial: 1,
		engines:    make(map[string]Engine),
	}
	for _, e := range []Engine{
		&DockerEngine{rt: rt}, &LXCEngine{rt: rt},
		&RktEngine{rt: rt}, &NspawnEngine{rt: rt},
	} {
		rt.engines[e.Name()] = e
	}
	return rt
}

// Engines lists registered engine names, sorted.
func (rt *Runtime) Engines() []string {
	out := make([]string, 0, len(rt.engines))
	for name := range rt.engines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Engine returns the engine frontend by name.
func (rt *Runtime) Engine(name string) (Engine, error) {
	e, ok := rt.engines[name]
	if !ok {
		return nil, vfs.EINVAL
	}
	return e, nil
}

// Create instantiates a container from an image: fresh namespaces (all
// seven unshared), a union root filesystem, a cgroup, and the engine's
// default MAC profile.
func (rt *Runtime) Create(name string, img *Image, opts CreateOpts) (*Container, error) {
	if opts.Engine == "" {
		opts.Engine = "docker"
	}
	if _, ok := rt.engines[opts.Engine]; !ok {
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
	mountNS := namespace.NewMountNS(rootfs)
	mountNS.MakeAllPrivate() // the runtime mounts everything private, §2.3
	set := &namespace.Set{
		Mount:  mountNS,
		PID:    namespace.NewPID(),
		Net:    namespace.NewNet(),
		UTS:    namespace.NewUTS(name),
		IPC:    namespace.NewIPC(),
		User:   rt.Host.User,
		Cgroup: namespace.NewCgroupNS("/" + opts.Engine + "/" + id),
	}
	set.Net.AddInterface("eth0")
	if opts.UIDMapBase != 0 {
		set.User = &namespace.UserNS{
			ID:     0,
			UIDMap: []namespace.IDMap{{Inside: 0, Outside: opts.UIDMapBase, Count: 65536}},
			GIDMap: []namespace.IDMap{{Inside: 0, Outside: opts.UIDMapBase, Count: 65536}},
		}
	}

	profile := "unconfined"
	if !opts.Privileged && opts.Engine == "docker" {
		profile = "docker-default"
	}
	cgPath := "/" + opts.Engine + "/" + id
	if _, err := rt.Procs.Cgroups.Create(cgPath, cgroup.Limits{}); err != nil {
		return nil, err
	}

	c := &Container{
		ID: id, Name: name, Engine: opts.Engine, Image: img,
		RootFS: rootfs, Namespaces: set, CgroupPath: cgPath,
		Profile: profile, Privileged: opts.Privileged,
		Env:   append(append([]string(nil), img.Config.Env...), opts.Env...),
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
	p.Namespaces.PID.Register(p.PID)
	p.Env = append([]string(nil), c.Env...)
	p.Cwd = c.Image.Config.WorkingDir
	if p.Cwd == "" {
		p.Cwd = "/"
	}
	prof := rt.Procs.Profiles.Get(c.Profile)
	p.Profile = c.Profile
	cred := p.Cred()
	if !c.Privileged {
		prof.Apply(cred)
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

// ByID fetches a container by (possibly truncated) id.
func (rt *Runtime) ByID(id string) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if c, ok := rt.byID[id]; ok {
		return c, nil
	}
	for full, c := range rt.byID {
		if strings.HasPrefix(full, id) {
			return c, nil
		}
	}
	return nil, vfs.ENOENT
}

// List returns container names (optionally filtered by engine), sorted.
func (rt *Runtime) List(engine string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.containers))
	for name, c := range rt.containers {
		if engine == "" || c.Engine == engine {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
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
