// Package pty implements the pseudo-terminal pair Cntr uses to connect
// the interactive shell inside the nested namespace with the user's
// terminal on the host (§3.2.4). For isolation, the host terminal file
// descriptors are never leaked into the container; the pty acts as a
// proxy between the two sides.
package pty

import (
	"io"
	"sync"

	"cntr/internal/pipe"
)

// Master is the host-terminal side of the pair: it writes keystrokes to
// the slave and reads the program's output; Close shuts both directions
// down.
type Master = pipe.End

// Slave is the in-container side, handed to the shell.
type Slave = pipe.End

// New returns a connected master/slave pair.
func New() (*Master, *Slave) { return pipe.Pair() }

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
	m.CloseWrite()
	wg.Wait()
}
