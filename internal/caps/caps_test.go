package caps

import (
	"testing"

	"cntr/internal/vfs"
)

func TestDefaultDockerProfileDrops(t *testing.T) {
	p := Lookup("docker-default")
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
	p := Lookup("unconfined")
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
	if Lookup("docker-default").Name != "docker-default" {
		t.Fatal("preloaded profile missing")
	}
	if Lookup("no-such-profile").Name != "unconfined" {
		t.Fatal("unknown profile must fall back to unconfined")
	}
}
