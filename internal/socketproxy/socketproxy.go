// Package socketproxy implements Cntr's Unix-socket forwarding (§3.2.4):
// sockets listening in the debug container or on the host (X11, D-Bus)
// are made reachable from inside the application container. Because
// CntrFS exposes socket files with inode numbers the kernel cannot
// associate with open sockets, Cntr runs a userspace proxy built on an
// epoll-style event loop that splices data between the two sides.
package socketproxy

import (
	"sync"
	"sync/atomic"

	"cntr/internal/pipe"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// Conn is one end of a bidirectional in-memory socket connection.
type Conn = pipe.End

// Listener accepts connections on a socket path.
type Listener struct {
	path    string
	backlog chan *Conn
	closed  atomic.Bool
	reg     *Registry
}

// Accept blocks for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, vfs.ECONNREFUSED
	}
	return c, nil
}

// Close stops the listener and unbinds the path.
func (l *Listener) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	l.reg.unbind(l.path)
	close(l.backlog)
	return nil
}

// Registry is a namespace's abstract-socket/filesystem-socket table.
// Each network namespace (or, for path-bound sockets, mount namespace)
// has its own registry.
type Registry struct {
	mu        sync.Mutex
	listeners map[string]*Listener
}

// NewRegistry returns an empty socket table.
func NewRegistry() *Registry {
	return &Registry{listeners: make(map[string]*Listener)}
}

// Listen binds path.
func (r *Registry) Listen(path string) (*Listener, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, busy := r.listeners[path]; busy {
		return nil, vfs.EADDRINUSE
	}
	l := &Listener{path: path, backlog: make(chan *Conn, 16), reg: r}
	r.listeners[path] = l
	return l, nil
}

// Dial connects to the listener at path.
func (r *Registry) Dial(path string) (*Conn, error) {
	r.mu.Lock()
	l, ok := r.listeners[path]
	r.mu.Unlock()
	if !ok || l.closed.Load() {
		return nil, vfs.ECONNREFUSED
	}
	client, server := pipe.Pair()
	l.backlog <- server
	return client, nil
}

func (r *Registry) unbind(path string) {
	r.mu.Lock()
	delete(r.listeners, path)
	r.mu.Unlock()
}

// Proxy forwards connections from a socket path in one namespace to a
// socket path in another, splicing payload through a kernel pipe (no
// userspace copies). One Proxy runs one epoll-style loop goroutine.
type Proxy struct {
	to     *Registry
	toPath string
	clock  *sim.Clock
	model  *sim.CostModel

	listener *Listener
	wg       sync.WaitGroup
}

// NewProxy starts forwarding from(path) -> to(path). clock/model may be
// nil outside benchmarks.
func NewProxy(from *Registry, fromPath string, to *Registry, toPath string, clock *sim.Clock, model *sim.CostModel) (*Proxy, error) {
	l, err := from.Listen(fromPath)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		to: to, toPath: toPath,
		clock: clock, model: model, listener: l,
	}
	p.wg.Add(1)
	go p.loop()
	return p, nil
}

// loop is the accept/dispatch event loop.
func (p *Proxy) loop() {
	defer p.wg.Done()
	for {
		client, err := p.listener.Accept()
		if err != nil {
			return
		}
		upstream, err := p.to.Dial(p.toPath)
		if err != nil {
			client.Close()
			continue
		}
		p.wg.Add(2)
		go p.splice(client, upstream)
		go p.splice(upstream, client)
	}
}

// splice moves bytes between endpoints, charging splice costs.
func (p *Proxy) splice(dst, src *Conn) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if p.clock != nil && p.model != nil {
				// One splice(2) call plus the per-byte remap cost.
				p.clock.Advance(p.model.Syscall + p.model.SpliceCost(n))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
}

// Close stops accepting and waits for in-flight splices.
func (p *Proxy) Close() {
	p.listener.Close()
	p.wg.Wait()
}
