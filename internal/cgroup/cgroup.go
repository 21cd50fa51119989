// Package cgroup models the cgroup hierarchy a container runtime uses to
// bound resource usage. Cntr's attach step assigns its injected process
// to the target container's cgroup "by appropriately setting the /sys/
// option" (§3.2.3); this package provides the hierarchy, the per-group
// limits, and the process membership that step manipulates.
package cgroup

import (
	"strings"
	"sync"

	"cntr/internal/vfs"
)

// Limits are the resource bounds a group enforces: the pids controller's
// process count, zero meaning unlimited.
type Limits struct {
	PidsMax int64
}

// group is one node in the hierarchy.
type group struct {
	limits Limits
	procs  map[int]bool
}

// Hierarchy is the cgroup tree. The zero value is not usable; call New.
type Hierarchy struct {
	mu     sync.RWMutex
	groups map[string]*group
}

// New returns a hierarchy containing only the root group "/".
func New() *Hierarchy {
	h := &Hierarchy{groups: make(map[string]*group)}
	h.groups["/"] = &group{procs: make(map[int]bool)}
	return h
}

func normalize(path string) string {
	parts := vfs.SplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// Create adds a group at path, creating intermediate groups as needed.
func (h *Hierarchy) Create(path string, limits Limits) {
	path = normalize(path)
	h.mu.Lock()
	defer h.mu.Unlock()
	if g, ok := h.groups[path]; ok {
		g.limits = limits
		return
	}
	// Ensure ancestors.
	parts := vfs.SplitPath(path)
	cur := ""
	for _, p := range parts[:len(parts)-1] {
		cur += "/" + p
		if _, ok := h.groups[cur]; !ok {
			h.groups[cur] = &group{procs: make(map[int]bool)}
		}
	}
	h.groups[path] = &group{limits: limits, procs: make(map[int]bool)}
}

// Delete removes an empty leaf group.
func (h *Hierarchy) Delete(path string) error {
	path = normalize(path)
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[path]
	if !ok {
		return vfs.ENOENT
	}
	if path == "/" {
		return vfs.EPERM
	}
	if len(g.procs) > 0 {
		return vfs.EBUSY
	}
	for p := range h.groups {
		if strings.HasPrefix(p, path+"/") {
			return vfs.EBUSY
		}
	}
	delete(h.groups, path)
	return nil
}

// Attach moves pid into the group at path, removing it from any other
// group (a pid belongs to exactly one group per hierarchy).
func (h *Hierarchy) Attach(pid int, path string) error {
	path = normalize(path)
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[path]
	if !ok {
		return vfs.ENOENT
	}
	if g.limits.PidsMax > 0 && int64(len(g.procs)) >= g.limits.PidsMax {
		return vfs.EAGAIN
	}
	for _, other := range h.groups {
		delete(other.procs, pid)
	}
	g.procs[pid] = true
	return nil
}

// Remove drops pid from whatever group holds it (process exit).
func (h *Hierarchy) Remove(pid int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, g := range h.groups {
		delete(g.procs, pid)
	}
}

// Of returns the path of the group containing pid, defaulting to "/".
func (h *Hierarchy) Of(pid int) string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for path, g := range h.groups {
		if g.procs[pid] {
			return path
		}
	}
	return "/"
}
