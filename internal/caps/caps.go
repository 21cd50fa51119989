// Package caps models the Linux security facilities Cntr must inherit
// when attaching to a container: capability sets and the
// mandatory-access-control profile, in the style of AppArmor and SELinux,
// that confines them. A modelled profile is a capability bounding set.
//
// When Cntr attaches to a container it reads the target process's
// profile and applies it to the process it injects, so that the injected
// shell holds no capability the application could not hold (§3.2.3).
package caps

import (
	"sync"

	"cntr/internal/vfs"
)

// LSMKind distinguishes the modelled MAC systems.
type LSMKind uint8

// Supported MAC flavors.
const (
	LSMNone LSMKind = iota
	LSMAppArmor
	LSMSELinux
)

// String returns the conventional name.
func (k LSMKind) String() string {
	switch k {
	case LSMAppArmor:
		return "apparmor"
	case LSMSELinux:
		return "selinux"
	default:
		return "none"
	}
}

// Profile is a MAC profile, modelled as a named capability bounding set:
// the part of a profile §3.2.3 has Cntr apply to the process it injects.
// Real AppArmor and SELinux policies also confine paths; nothing here
// enforces a path rule.
type Profile struct {
	Name string
	Kind LSMKind
	// BoundingSet is the capability bounding set the profile leaves
	// available.
	BoundingSet vfs.CapSet
}

// DefaultDockerProfile mirrors docker-default's pruned bounding set.
func DefaultDockerProfile() *Profile {
	return &Profile{
		Name: "docker-default",
		Kind: LSMAppArmor,
		BoundingSet: vfs.NewCapSet(
			vfs.CapChown, vfs.CapDacOverride, vfs.CapFowner, vfs.CapFsetid,
			vfs.CapMknod, vfs.CapSetUID, vfs.CapSetGID, vfs.CapKill,
			vfs.CapAuditWrite, vfs.CapNetBindService,
		),
	}
}

// UnconfinedProfile is the absence of MAC confinement.
func UnconfinedProfile() *Profile {
	return &Profile{Name: "unconfined", Kind: LSMNone, BoundingSet: vfs.FullCapSet()}
}

// Apply confines a credential to the profile: capabilities outside the
// bounding set are dropped. This is the "drop the capabilities by
// applying the AppArmor/SELinux profile" step of §3.2.3.
func (p *Profile) Apply(c *vfs.Cred) {
	if p == nil {
		return
	}
	c.Caps = c.Caps.Intersect(p.BoundingSet)
}

// Registry stores profiles by name, like the kernel's loaded-policy set.
type Registry struct {
	mu       sync.RWMutex
	profiles map[string]*Profile
}

// NewRegistry returns a registry preloaded with the unconfined and
// docker-default profiles.
func NewRegistry() *Registry {
	r := &Registry{profiles: make(map[string]*Profile)}
	r.Register(UnconfinedProfile())
	r.Register(DefaultDockerProfile())
	return r
}

// Register adds or replaces a profile.
func (r *Registry) Register(p *Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.profiles[p.Name] = p
}

// Get returns the named profile, falling back to unconfined.
func (r *Registry) Get(name string) *Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if p, ok := r.profiles[name]; ok {
		return p
	}
	return r.profiles["unconfined"]
}
