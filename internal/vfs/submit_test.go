package vfs_test

import (
	"fmt"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// asyncMem wraps memfs with an AsyncFS surface that counts what reaches
// the transport: Submit calls, the requests they carried, and how many
// of the returned futures were reaped. The I/O itself runs inline.
type asyncMem struct {
	*memfs.FS
	submits, reqs, awaited int
}

func (a *asyncMem) Submit(op *vfs.Op, h vfs.Handle, kind vfs.OpKind, reqs []vfs.IOReq) []vfs.PendingIO {
	a.submits++
	a.reqs += len(reqs)
	out := vfs.Submit(a.FS, op, h, kind, reqs)
	for i, p := range out {
		out[i] = countedIO{a, p}
	}
	return out
}

type countedIO struct {
	a     *asyncMem
	inner vfs.PendingIO
}

func (c countedIO) Await(op *vfs.Op) (int, error) {
	c.a.awaited++
	return c.inner.Await(op)
}

// submitGate is a submit-time gate recording the BatchOps of every
// InterceptSubmit call; deny, when non-zero, fails every decision.
type submitGate struct {
	calls []int
	deny  vfs.Errno
}

func (g *submitGate) Intercept(info *vfs.OpInfo, next func() error) error { return next() }

func (g *submitGate) InterceptSubmit(info *vfs.OpInfo) error {
	g.calls = append(g.calls, info.BatchOps)
	if g.deny != vfs.OK {
		return g.deny
	}
	return nil
}

// TestChainSubmit drives the one pipelined-submission path of an
// interceptor chain over {read, write} × {1, N requests} × {admitted,
// denied, denial swallowed by an outer interceptor, fault injected at
// completion}. Whatever the window's length, the gate decides it with
// exactly one call carrying BatchOps = len(reqs) and the transport sees
// exactly one Submit; a denial dispatches nothing, fails every future,
// and reaches the interceptors outside the gate exactly once with
// BatchOps preserved.
func TestChainSubmit(t *testing.T) {
	const each = 4 << 10
	type outcome int
	const (
		admit outcome = iota
		deny
		denySwallowed
		faultAtCompletion
	)
	names := map[outcome]string{admit: "admit", deny: "deny", denySwallowed: "deny-swallowed", faultAtCompletion: "fault-at-completion"}

	for _, kind := range []vfs.OpKind{vfs.KindRead, vfs.KindWrite} {
		for _, n := range []int{1, 6} {
			for _, oc := range []outcome{admit, deny, denySwallowed, faultAtCompletion} {
				t.Run(fmt.Sprintf("%v/%d/%s", kind, n, names[oc]), func(t *testing.T) {
					back := &asyncMem{FS: memfs.New(memfs.Options{})}
					if err := vfs.NewClient(back.FS, vfs.Root()).WriteFile("/f", make([]byte, n*each), 0o644); err != nil {
						t.Fatal(err)
					}

					gate := &submitGate{}
					if oc == deny || oc == denySwallowed {
						gate.deny = vfs.EACCES
					}
					// denials and completions are what the interceptors
					// outside the gate observe for this kind.
					var denials []int
					completions := 0
					observer := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
						err := next()
						if info.Kind == kind && info.Async {
							if info.BatchOps > 0 {
								if vfs.ToErrno(err) != vfs.EACCES {
									t.Errorf("window-scoped entry carries %v, want the denial", err)
								}
								denials = append(denials, info.BatchOps)
							} else {
								completions++
							}
						}
						return err
					})
					swallower := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
						if err := next(); oc != denySwallowed || vfs.ToErrno(err) != vfs.EACCES {
							return err
						}
						return nil
					})
					ics := []vfs.Interceptor{swallower, observer, gate}
					if oc == faultAtCompletion {
						ics = append(ics, vfs.NewFaultInjector(vfs.FaultRule{Kind: kind, Errno: vfs.EIO}))
					}
					chained := vfs.Chain(back, ics...)
					cli := vfs.NewClient(chained, vfs.Root())
					h, err := chained.Open(cli.Op, mustResolve(t, cli, "/f"), vfs.ORdwr)
					if err != nil {
						t.Fatal(err)
					}

					reqs := make([]vfs.IOReq, n)
					for i := range reqs {
						reqs[i] = vfs.IOReq{Off: int64(i * each), Buf: make([]byte, each)}
					}
					pend := vfs.Submit(chained, cli.Op, h, kind, reqs)
					if len(pend) != n {
						t.Fatalf("futures = %d, want %d", len(pend), n)
					}

					wantN, wantErr, dispatched := each, vfs.OK, true
					switch oc {
					case deny, denySwallowed:
						wantN, wantErr, dispatched = 0, vfs.EACCES, false
					case faultAtCompletion:
						wantN, wantErr = 0, vfs.EIO
					}
					for i, p := range pend {
						if got, err := p.Await(cli.Op); got != wantN || vfs.ToErrno(err) != wantErr {
							t.Fatalf("future %d: n=%d err=%v, want n=%d err=%v", i, got, err, wantN, wantErr)
						}
					}

					if len(gate.calls) != 1 || gate.calls[0] != n {
						t.Fatalf("gate calls = %v, want one decision with BatchOps=%d", gate.calls, n)
					}
					wantSubmits, wantReqs := 0, 0
					if dispatched {
						wantSubmits, wantReqs = 1, n
					}
					if back.submits != wantSubmits || back.reqs != wantReqs {
						t.Fatalf("transport saw %d Submit calls carrying %d requests, want %d/%d",
							back.submits, back.reqs, wantSubmits, wantReqs)
					}
					// Every dispatched future is reaped, even when a fault
					// short-circuits the completion above it.
					if back.awaited != wantReqs {
						t.Fatalf("transport futures reaped = %d, want %d", back.awaited, wantReqs)
					}
					if dispatched {
						if len(denials) != 0 || completions != n {
							t.Fatalf("outer interceptors saw denials %v and %d completions, want none and %d", denials, completions, n)
						}
					} else if len(denials) != 1 || denials[0] != n || completions != 0 {
						t.Fatalf("outer interceptors saw denials %v and %d completions, want one denial with BatchOps=%d", denials, completions, n)
					}
				})
			}
		}
	}
}

// TestChainSubmitRejectsAtBoundary: a kind that is not a data transfer
// fails every future with EINVAL, and an empty window yields no futures
// — neither runs a gate nor touches the transport. The same holds for
// the free function's synchronous fallback.
func TestChainSubmitRejectsAtBoundary(t *testing.T) {
	back := &asyncMem{FS: memfs.New(memfs.Options{})}
	gate := &submitGate{}
	chained := vfs.Chain(back, gate)
	cli := vfs.NewClient(chained, vfs.Root())
	if err := cli.WriteFile("/f", make([]byte, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := chained.Open(cli.Op, mustResolve(t, cli, "/f"), vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	two := []vfs.IOReq{{Off: 0, Buf: make([]byte, 4)}, {Off: 4, Buf: make([]byte, 4)}}

	for _, fs := range []vfs.FS{chained, back.FS} {
		pend := vfs.Submit(fs, cli.Op, h, vfs.KindFsync, two)
		if len(pend) != len(two) {
			t.Fatalf("bad kind: %d futures, want %d", len(pend), len(two))
		}
		for _, p := range pend {
			if n, err := p.Await(cli.Op); n != 0 || vfs.ToErrno(err) != vfs.EINVAL {
				t.Fatalf("bad kind: n=%d err=%v, want EINVAL", n, err)
			}
		}
		for _, kind := range []vfs.OpKind{vfs.KindRead, vfs.KindWrite, vfs.KindFsync} {
			if pend := vfs.Submit(fs, cli.Op, h, kind, nil); pend != nil {
				t.Fatalf("empty %v window returned %d futures", kind, len(pend))
			}
		}
	}
	if len(gate.calls) != 0 || back.submits != 0 {
		t.Fatalf("rejected windows reached the gate (%v) or the transport (%d)", gate.calls, back.submits)
	}
}

// TestChainSubmitOverSyncBacking: with nothing asynchronous beneath it
// the chain runs the window inline through its own Read/Write, so every
// request is an ordinary synchronous operation to the interceptors —
// decided by Intercept, never by a submit-time gate.
func TestChainSubmitOverSyncBacking(t *testing.T) {
	gate := &submitGate{}
	syncOps := 0
	observer := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		if info.Kind == vfs.KindRead && !info.Async && info.BatchOps == 0 {
			syncOps++
		}
		return next()
	})
	chained := vfs.Chain(memfs.New(memfs.Options{}), observer, gate)
	if vfs.IsAsync(chained) {
		t.Fatal("a chain over memfs must not claim pipelining")
	}
	cli := vfs.NewClient(chained, vfs.Root())
	if err := cli.WriteFile("/f", make([]byte, 12), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := chained.Open(cli.Op, mustResolve(t, cli, "/f"), vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []vfs.IOReq{{Off: 0, Buf: make([]byte, 4)}, {Off: 4, Buf: make([]byte, 4)}, {Off: 8, Buf: make([]byte, 4)}}
	for i, p := range vfs.Submit(chained, cli.Op, h, vfs.KindRead, reqs) {
		if n, err := p.Await(cli.Op); n != 4 || err != nil {
			t.Fatalf("future %d: n=%d err=%v", i, n, err)
		}
	}
	if syncOps != len(reqs) || len(gate.calls) != 0 {
		t.Fatalf("sync fallback: %d synchronous reads and submit-gate calls %v, want %d and none", syncOps, gate.calls, len(reqs))
	}
}

func mustResolve(t *testing.T, cli *vfs.Client, path string) vfs.Ino {
	t.Helper()
	r, err := cli.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	return r.Ino
}
