package caps

import (
	"testing"

	"cntr/internal/vfs"
)

func TestDefaultDockerProfileDrops(t *testing.T) {
	p := DefaultDockerProfile()
	cred := vfs.Root()
	p.Apply(cred)
	if cred.Caps.Has(vfs.CapSysAdmin) {
		t.Fatal("docker-default must drop CAP_SYS_ADMIN")
	}
	if cred.Caps.Has(vfs.CapSysPtrace) {
		t.Fatal("docker-default must drop CAP_SYS_PTRACE")
	}
	if !cred.Caps.Has(vfs.CapChown) || !cred.Caps.Has(vfs.CapKill) {
		t.Fatal("docker-default keeps standard caps")
	}
}

func TestUnconfinedKeepsAll(t *testing.T) {
	p := UnconfinedProfile()
	cred := vfs.Root()
	p.Apply(cred)
	if cred.Caps != vfs.FullCapSet() {
		t.Fatal("unconfined must keep everything")
	}
}

func TestNilProfileSafe(t *testing.T) {
	var p *Profile
	cred := vfs.Root()
	p.Apply(cred)
	if cred.Caps != vfs.FullCapSet() {
		t.Fatal("nil profile must not modify caps")
	}
}

func TestRegistryFallback(t *testing.T) {
	r := NewRegistry()
	if r.Get("docker-default").Name != "docker-default" {
		t.Fatal("preloaded profile missing")
	}
	if r.Get("no-such-profile").Name != "unconfined" {
		t.Fatal("unknown profile must fall back to unconfined")
	}
	custom := &Profile{Name: "strict", Kind: LSMSELinux}
	r.Register(custom)
	if r.Get("strict") != custom {
		t.Fatal("registered profile not returned")
	}
}

func TestLSMKindString(t *testing.T) {
	if LSMAppArmor.String() != "apparmor" || LSMSELinux.String() != "selinux" || LSMNone.String() != "none" {
		t.Fatal("kind names")
	}
}
