package vfs

import (
	"context"
	"sync"
	"sync/atomic"
)

// Op is the per-request context every filesystem operation runs with. It
// plays the role of the kernel's request struct on the FUSE path: who is
// asking (Cred, PID), which request this is (ID), and whether the caller
// still wants the answer (Context). Every vfs.FS method takes an *Op as
// its first argument; layers pass it down unchanged so a single request
// keeps one identity across the whole stack (syscall layer → page cache →
// FUSE connection → server → passthrough filesystem).
//
// Cancellation maps onto FUSE_INTERRUPT: when the context is canceled
// while the request is in flight, the transport forwards an interrupt and
// blocking operations unwind with EINTR, exactly as an interrupted
// syscall does.
type Op struct {
	// Cred is the credential the operation runs with; never nil for ops
	// built through NewOp.
	Cred *Cred
	// ID is a unique request identifier. Ops created by NewOp draw from a
	// process-wide counter; the FUSE server overwrites it with the wire
	// request's unique id so both sides agree on the request identity.
	ID uint64
	// PID is the originating process id, zero when no process model is
	// involved (tests, tools).
	PID uint32
	// Stat marks a path walk made for stat(2) (Client.Stat, Client.Lstat):
	// its caller reads the size and times the walk returns, so a cache
	// that keeps attributes a write made stale for other walks must not
	// answer it from them (fuse.Conn.Lookup).
	Stat bool

	ctx context.Context
}

var opCounter atomic.Uint64

// NewOp builds an operation context. A nil ctx means "not cancelable"
// (context.Background()); a nil cred means root.
func NewOp(ctx context.Context, cred *Cred) *Op {
	if ctx == nil {
		ctx = context.Background()
	}
	if cred == nil {
		cred = Root()
	}
	return &Op{Cred: cred, ID: opCounter.Add(1), ctx: ctx}
}

// Init overwrites op in place with a request's identity: NewOp for an
// owner that recycles one Op from request to request (the FUSE server,
// whose Op.ID is the wire request's unique id). ctx and cred must not be
// nil. An Op handed to a filesystem call is only valid for that call.
func (op *Op) Init(ctx context.Context, cred *Cred, id uint64, pid uint32) {
	*op = Op{Cred: cred, ID: id, PID: pid, ctx: ctx}
}

// RootOp returns a fresh non-cancelable operation with root credentials —
// the analogue of kernel-internal I/O (writeback, readahead) that runs on
// behalf of no particular process.
func RootOp() *Op {
	return NewOp(context.Background(), Root())
}

// Context returns the operation's cancellation context. Safe on a nil Op.
func (op *Op) Context() context.Context {
	if op == nil || op.ctx == nil {
		return context.Background()
	}
	return op.ctx
}

// Err reports whether the operation has been interrupted: it returns
// EINTR once the context is canceled (or its deadline passed) and nil
// otherwise. Blocking filesystem code checks this at wait points.
func (op *Op) Err() error {
	if op == nil || op.ctx == nil {
		return nil
	}
	if op.ctx.Err() != nil {
		return EINTR
	}
	return nil
}

// WithCred returns a copy of the operation running with a different
// credential but the same identity and context; CntrFS uses it for the
// RLIMIT_FSIZE-stripping replay of writes (setfsuid semantics).
func (op *Op) WithCred(c *Cred) *Op {
	cp := *op
	cp.Cred = c
	return &cp
}

var opPool = sync.Pool{New: func() any { return new(Op) }}

// again stamps a borrowed Op (Client.req), whose last request has
// returned, as the next one.
func (op *Op) again() *Op {
	op.ID = opCounter.Add(1)
	return op
}

// release wipes a borrowed Op, so that whoever still holds it holds
// nobody's identity, and recycles it.
func (op *Op) release() {
	*op = Op{}
	if p := poison.Load(); p != nil {
		*op = *p.Op
	}
	opPool.Put(op)
}

// poison, set only by tests (PoisonRecycled in export_test.go), is what a
// released Op and a released chain frame are overwritten with, so that a
// layer which kept one past its call shows in any trace.
var poison atomic.Pointer[OpInfo]
