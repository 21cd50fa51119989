// Package pty implements the pseudo-terminal pair Cntr uses to connect
// the interactive shell inside the nested namespace with the user's
// terminal on the host (§3.2.4). For isolation, the host terminal file
// descriptors are never leaked into the container; the pty acts as a
// proxy between the two sides.
package pty

import (
	"io"
	"sync"
)

// pipe is a blocking in-memory byte stream.
type pipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.buf) == 0 && p.closed {
		return 0, io.EOF
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

func (p *pipe) Close() error {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// Master is the host-terminal side of the pair.
type Master struct {
	in  *pipe // master -> slave (keystrokes)
	out *pipe // slave -> master (program output)
}

// Slave is the in-container side, handed to the shell.
type Slave struct {
	in  *pipe
	out *pipe
}

// New returns a connected master/slave pair.
func New() (*Master, *Slave) {
	in, out := newPipe(), newPipe()
	return &Master{in: in, out: out}, &Slave{in: in, out: out}
}

// Write sends keystrokes to the slave.
func (m *Master) Write(b []byte) (int, error) { return m.in.Write(b) }

// Read receives program output.
func (m *Master) Read(b []byte) (int, error) { return m.out.Read(b) }

// Close shuts both directions down.
func (m *Master) Close() error {
	m.in.Close()
	m.out.Close()
	return nil
}

// Read receives keystrokes.
func (s *Slave) Read(b []byte) (int, error) { return s.in.Read(b) }

// Write sends program output to the master.
func (s *Slave) Write(b []byte) (int, error) { return s.out.Write(b) }

// Close shuts both directions down.
func (s *Slave) Close() error {
	s.in.Close()
	s.out.Close()
	return nil
}

// Proxy copies user terminal I/O through the master until either side
// ends, returning when the output side is drained. It is what connects
// cntr's stdio to the injected shell.
func Proxy(m *Master, userIn io.Reader, userOut io.Writer) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(userOut, m) //nolint:errcheck
	}()
	io.Copy(m, userIn) //nolint:errcheck
	m.in.Close()
	wg.Wait()
}
