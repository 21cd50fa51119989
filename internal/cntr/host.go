// Package cntr implements the paper's primary contribution: attaching a
// tools environment ("fat" container or host) into a running application
// container ("slim") through a nested mount namespace served by CntrFS
// over FUSE, while inheriting the complete sandbox of the target —
// namespaces, cgroup, capabilities, MAC profile and environment (§3).
package cntr

import (
	"sync"

	"cntr/internal/container"
	"cntr/internal/memfs"
	"cntr/internal/namespace"
	"cntr/internal/proc"
	"cntr/internal/sim"
	"cntr/internal/socketproxy"
	"cntr/internal/vfs"
)

// Host bundles one simulated machine: clock, root filesystem, process
// table, container runtime, registry access and socket tables.
type Host struct {
	Clock   *sim.Clock
	Model   *sim.CostModel
	RootFS  *memfs.FS
	NS      *namespace.Set
	Procs   *proc.Table
	Runtime *container.Runtime
	Node    *container.Node

	mu      sync.Mutex
	sockets map[uint64]*socketproxy.Registry // by network namespace id
}

// NewHost boots a host: a root filesystem with the usual skeleton, init
// in the initial namespaces, and an empty container runtime.
func NewHost() *Host {
	rootFS := memfs.New(memfs.Options{})
	cli := vfs.NewClient(rootFS, vfs.Root())
	for _, dir := range []string{"/bin", "/usr/bin", "/etc", "/dev", "/proc", "/tmp", "/var/lib", "/root", "/home"} {
		cli.MkdirAll(dir, 0o755)
	}
	cli.WriteFile("/etc/passwd", []byte("root:x:0:0:root:/root:/bin/sh\n"), 0o644)
	cli.WriteFile("/etc/hostname", []byte("host\n"), 0o644)
	cli.WriteFile("/bin/sh", []byte("#!host-shell"), 0o755)

	mountNS := namespace.NewMountNS(rootFS)
	hostSet := namespace.New(mountNS, "host", namespace.KindPID, namespace.KindNet,
		namespace.KindUTS, namespace.KindIPC, namespace.KindUser, namespace.KindCgroup)
	table := proc.NewTable(hostSet)
	h := &Host{
		Clock:   sim.NewClock(),
		Model:   sim.DefaultCostModel(),
		RootFS:  rootFS,
		NS:      hostSet,
		Procs:   table,
		Runtime: container.NewRuntime(table, hostSet),
		Node:    container.NewNode(),
		sockets: make(map[uint64]*socketproxy.Registry),
	}
	return h
}

// SocketsFor returns (creating on demand) the Unix-socket table of the
// network namespace with the given id (Set.ID(namespace.KindNet)).
func (h *Host) SocketsFor(netID uint64) *socketproxy.Registry {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.sockets[netID]
	if !ok {
		r = socketproxy.NewRegistry()
		h.sockets[netID] = r
	}
	return r
}

// HostSockets is the host network namespace's socket table.
func (h *Host) HostSockets() *socketproxy.Registry {
	return h.SocketsFor(h.NS.ID(namespace.KindNet))
}
