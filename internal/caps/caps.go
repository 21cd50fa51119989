// Package caps models the Linux security facilities Cntr must inherit
// when attaching to a container: capability sets and the
// mandatory-access-control profile, in the style of AppArmor and SELinux,
// that confines them. A modelled profile is a capability bounding set,
// and a container runs under one of two: docker-default or unconfined.
//
// When Cntr attaches to a container it reads the target process's
// profile and applies it to the process it injects, so that the injected
// shell holds no capability the application could not hold (§3.2.3).
package caps

import "cntr/internal/vfs"

// Profile is a MAC profile, modelled as a named capability bounding set:
// the part of a profile §3.2.3 has Cntr apply to the process it injects.
// Real AppArmor and SELinux policies also confine paths; nothing here
// enforces a path rule.
type Profile struct {
	Name string
	// BoundingSet is the capability bounding set the profile leaves
	// available.
	BoundingSet vfs.CapSet
}

// dockerDefault is docker-default's pruned bounding set.
var dockerDefault = vfs.NewCapSet(
	vfs.CapChown, vfs.CapDacOverride, vfs.CapFowner, vfs.CapFsetid,
	vfs.CapMknod, vfs.CapSetUID, vfs.CapSetGID, vfs.CapKill,
	vfs.CapAuditWrite, vfs.CapNetBindService,
)

// Lookup returns the named profile: docker-default, or else unconfined,
// the absence of MAC confinement.
func Lookup(name string) *Profile {
	if name == "docker-default" {
		return &Profile{Name: name, BoundingSet: dockerDefault}
	}
	return &Profile{Name: "unconfined", BoundingSet: vfs.FullCapSet()}
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
