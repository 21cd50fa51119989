package vfs

// PendingIO is the future half of an asynchronous read or write: the
// operation has been submitted to the filesystem and Await collects its
// result. Await must be called exactly once; it blocks until the
// operation completes and returns the transferred byte count. If op's
// context is canceled while the result is outstanding, implementations
// forward the cancellation (over FUSE, an INTERRUPT frame) and return
// EINTR, exactly as the synchronous path does.
type PendingIO interface {
	Await(op *Op) (int, error)
}

// IOReq is one request of a pipelined window: a read of up to len(Buf)
// bytes at Off landing in Buf, or a write of Buf at Off. Buf must not
// be touched until the corresponding future's Await returns.
type IOReq struct {
	Off int64
	Buf []byte
}

// AsyncFS is the optional capability interface for filesystems whose
// transport can pipeline data operations: submission and completion are
// decoupled, so a caller may keep several requests in flight and overlap
// their round trips. The FUSE connection implements it natively (Submit
// returns once the request frames are queued); use the free function
// Submit on an arbitrary FS for a synchronous fallback.
type AsyncFS interface {
	// Submit starts every request of one window — kind is KindRead or
	// KindWrite, all on handle h — and returns one future per request,
	// index-aligned. A single operation is a window of length 1. An
	// interceptor chain admits the window with one submit-time gate
	// pass (OpInfo.BatchOps = len(reqs)) before anything is dispatched.
	// An empty window returns nil; any other kind returns EINVAL futures.
	Submit(op *Op, h Handle, kind OpKind, reqs []IOReq) []PendingIO
}

// IsAsync reports whether fs has a genuinely asynchronous submit path.
// It sees through interceptor chains (and any other wrapper exposing
// Unwrap), because wrappers implement AsyncFS unconditionally with a
// synchronous fallback — a bare type assertion on a wrapped synchronous
// filesystem would claim pipelining that isn't there.
func IsAsync(fs FS) bool {
	type unwrapper interface{ Unwrap() FS }
	for {
		if u, ok := fs.(unwrapper); ok {
			fs = u.Unwrap()
			continue
		}
		_, ok := fs.(AsyncFS)
		return ok
	}
}

// completedIO is an already-resolved future, used when the backing
// filesystem has no asynchronous path and the operation ran inline.
type completedIO struct {
	n   int
	err error
}

// Await implements PendingIO.
func (c completedIO) Await(*Op) (int, error) { return c.n, c.err }

// CompletedIO returns a future that is already resolved to (n, err).
// Synchronous fallbacks and tests use it to satisfy PendingIO.
func CompletedIO(n int, err error) PendingIO { return completedIO{n, err} }

// failedWindow resolves every future of an n-request window to err.
func failedWindow(n int, err error) []PendingIO {
	out := make([]PendingIO, n)
	for i := range out {
		out[i] = completedIO{0, err}
	}
	return out
}

// rejectWindow validates a window at the Submit boundary: an empty
// window yields no futures and a kind that is not a data transfer fails
// every future with EINVAL, in both cases before any gate or transport
// sees the submission.
func rejectWindow(kind OpKind, n int) (out []PendingIO, rejected bool) {
	switch {
	case n == 0:
		return nil, true
	case kind != KindRead && kind != KindWrite:
		return failedWindow(n, EINVAL), true
	}
	return nil, false
}

// Submit issues a pipelined window through fs when it implements
// AsyncFS, and otherwise performs the requests synchronously, returning
// already-completed futures. Callers can therefore pipeline without
// caring whether the transport underneath supports it.
func Submit(fs FS, op *Op, h Handle, kind OpKind, reqs []IOReq) []PendingIO {
	if a, ok := fs.(AsyncFS); ok {
		return a.Submit(op, h, kind, reqs)
	}
	return submitInline(fs, op, h, kind, reqs)
}

// submitInline is the synchronous fallback: the window runs request by
// request through fs.Read or fs.Write and every future is pre-resolved.
func submitInline(fs FS, op *Op, h Handle, kind OpKind, reqs []IOReq) []PendingIO {
	if out, rejected := rejectWindow(kind, len(reqs)); rejected {
		return out
	}
	io := fs.Read
	if kind == KindWrite {
		io = fs.Write
	}
	out := make([]PendingIO, len(reqs))
	for i, r := range reqs {
		n, err := io(op, h, r.Off, r.Buf)
		out[i] = completedIO{n, err}
	}
	return out
}
