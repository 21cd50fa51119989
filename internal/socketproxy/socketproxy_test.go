package socketproxy

import (
	"testing"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

func TestListenDial(t *testing.T) {
	r := NewRegistry()
	l, err := r.Listen("/tmp/sock")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		n, _ := conn.Read(buf)
		conn.Write(buf[:n])
		conn.Close()
	}()
	c, err := r.Dial("/tmp/sock")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("ping"))
	buf := make([]byte, 8)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q %v", buf[:n], err)
	}
}

func TestDialUnbound(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Dial("/nope"); vfs.ToErrno(err) != vfs.ECONNREFUSED {
		t.Fatalf("dial unbound: %v", err)
	}
}

func TestAddressInUse(t *testing.T) {
	r := NewRegistry()
	r.Listen("/s")
	if _, err := r.Listen("/s"); vfs.ToErrno(err) != vfs.EADDRINUSE {
		t.Fatalf("double listen: %v", err)
	}
}

func TestCloseUnbinds(t *testing.T) {
	r := NewRegistry()
	l, _ := r.Listen("/s")
	l.Close()
	if len(r.listeners) != 0 {
		t.Fatal("path still bound after close")
	}
	if _, err := r.Listen("/s"); err != nil {
		t.Fatal("rebind after close should work")
	}
	l.Close() // idempotent
}

func TestProxyForwardsBothDirections(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	containerReg := NewRegistry()
	hostReg := NewRegistry()
	// X server on host.
	l, _ := hostReg.Listen("/x0")
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64)
				for {
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					conn.Write(append([]byte("srv:"), buf[:n]...))
				}
			}()
		}
	}()
	p, err := NewProxy(containerReg, "/x0", hostReg, "/x0", clock, model)
	if err != nil {
		t.Fatal(err)
	}
	c, err := containerReg.Dial("/x0")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("draw"))
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "srv:draw" {
		t.Fatalf("through proxy: %q %v", buf[:n], err)
	}
	if clock.Now() == 0 {
		t.Fatal("splice must charge virtual time")
	}
	c.Close()
	p.Close()
}

func TestProxyUpstreamGone(t *testing.T) {
	containerReg := NewRegistry()
	hostReg := NewRegistry()
	p, err := NewProxy(containerReg, "/s", hostReg, "/missing", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := containerReg.Dial("/s")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read should fail when upstream is unreachable")
	}
}
