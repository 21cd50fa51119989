package container

import (
	"strings"

	"cntr/internal/vfs"
)

// engine is a container-manager frontend. Cntr deliberately depends only
// on this narrow surface — resolving a user-visible container reference
// to the process id of the container's main process — because
// management APIs churn while the kernel interface is stable (§4: ~70
// LoC per engine). Here the frontends differ only in which references
// they accept and in what order they try them.
type engine struct {
	name    string
	lookups []lookup
}

// lookup finds a container by one kind of reference.
type lookup func(rt *Runtime, ref string) (*Container, error)

// engines is every frontend, in the order ResolveAnyEngine tries them.
var engines = []engine{
	// docker: a name, then a (truncated) hex container id.
	{"docker", []lookup{(*Runtime).Get, hexID}},
	// lxc-info -n NAME -p.
	{"lxc", []lookup{(*Runtime).Get}},
	// A pod UUID or the unambiguous prefix rkt accepts, then a name.
	{"rkt", []lookup{(*Runtime).ByID, (*Runtime).Get}},
	// machinectl show MACHINE -p Leader.
	{"systemd-nspawn", []lookup{(*Runtime).Get}},
}

func hexID(rt *Runtime, ref string) (*Container, error) {
	if ref == "" || strings.IndexFunc(ref, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) != -1 {
		return nil, vfs.ENOENT
	}
	return rt.ByID(ref)
}

// ResolveAnyEngine tries every engine in order and returns the main pid
// of the first running container one of them finds for ref, with that
// engine's name — what `cntr attach NAME` does when the engine is
// unspecified. An engine's first lookup that finds a container of its
// own decides for that engine.
func ResolveAnyEngine(rt *Runtime, ref string) (int, string, error) {
	for _, e := range engines {
		for _, lookup := range e.lookups {
			if c, err := lookup(rt, ref); err == nil && c.Engine == e.name {
				if c.State == StateRunning && c.MainPID != 0 {
					return c.MainPID, e.name, nil
				}
				break
			}
		}
	}
	return 0, "", vfs.ENOENT
}
