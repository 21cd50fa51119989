// Package pipe is a buffered in-memory byte pipe and the crossed pair of
// ends built from two of them: what a pseudo-terminal's master and slave
// are, and what the two ends of a connected Unix socket are.
package pipe

import (
	"io"
	"sync"
)

// pipe is a blocking byte stream: a write never blocks, a read waits for
// bytes or the close.
type pipe struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu
	buf    []byte
	closed bool
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

func (p *pipe) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// End is one end of a pair: it reads what the other end writes.
type End struct {
	r, w *pipe
}

// Pair returns two connected ends.
func Pair() (*End, *End) {
	a, b := &pipe{}, &pipe{}
	a.cond.L, b.cond.L = &a.mu, &b.mu
	return &End{r: a, w: b}, &End{r: b, w: a}
}

// Read receives what the other end wrote; io.EOF once that is drained
// and either end has closed the direction.
func (e *End) Read(b []byte) (int, error) { return e.r.read(b) }

// Write sends b to the other end.
func (e *End) Write(b []byte) (int, error) { return e.w.write(b) }

// CloseWrite shuts the direction toward the other end down: its reads
// end with io.EOF once drained.
func (e *End) CloseWrite() { e.w.close() }

// Close shuts both directions down.
func (e *End) Close() error {
	e.r.close()
	e.w.close()
	return nil
}
