package policy

import (
	"reflect"
	"testing"

	"cntr/internal/vfs"
)

// drivePair builds two enforcers from the same profile, runs setup on
// both, then decides n operations on one via n InterceptSubmit calls
// with BatchOps=1 and on the other via a single InterceptSubmit with
// BatchOps=n, and returns the two enforcers plus the error each
// produced.
func drivePair(t *testing.T, p *Profile, audit bool, info vfs.OpInfo, n int, setup func(e *Enforcer)) (perOp, batched *Enforcer, perErr, batchErr error) {
	t.Helper()
	perOp, batched = NewEnforcer(p, audit), NewEnforcer(p, audit)
	if setup != nil {
		setup(perOp)
		setup(batched)
	}

	one := info
	one.BatchOps = 1
	for i := 0; i < n; i++ {
		cp := one
		if err := perOp.InterceptSubmit(&cp); err != nil {
			perErr = err
		}
	}
	win := info
	win.BatchOps = n
	batchErr = batched.InterceptSubmit(&win)
	return perOp, batched, perErr, batchErr
}

// assertSameOutcome pins every observable of the two window shapes:
// the decision itself and the denial/audit/violation accounting.
func assertSameOutcome(t *testing.T, scenario string, perOp, batched *Enforcer, perErr, batchErr error) {
	t.Helper()
	if vfs.ToErrno(perErr) != vfs.ToErrno(batchErr) {
		t.Fatalf("%s: per-op err %v != batched err %v", scenario, perErr, batchErr)
	}
	if a, b := perOp.Denials(), batched.Denials(); a != b {
		t.Fatalf("%s: denials diverge: per-op %d, batched %d", scenario, a, b)
	}
	if a, b := perOp.Audited(), batched.Audited(); a != b {
		t.Fatalf("%s: audited diverge: per-op %d, batched %d", scenario, a, b)
	}
	if a, b := perOp.Violations(), batched.Violations(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violation logs diverge:\nper-op:  %+v\nbatched: %+v", scenario, a, b)
	}
}

// TestBatchAdmissionMatchesPerOp: for every gate outcome — allow,
// off-profile denial, audit-mode pass-through, ceiling breach, exempt
// housekeeping — admitting an N-op window in one decision must be
// observationally identical to N one-op windows.
func TestBatchAdmissionMatchesPerOp(t *testing.T) {
	allowAll := &Profile{Rules: []Rule{{
		Prefix: "/",
		Kinds:  []string{"read", "write"},
	}}}
	lookupOnly := &Profile{Rules: []Rule{{
		Prefix: "/",
		Kinds:  []string{"lookup"},
	}}}
	op := vfs.RootOp()
	op.PID = 9
	read := vfs.OpInfo{Kind: vfs.KindRead, Op: op, Ino: vfs.RootIno}
	write := vfs.OpInfo{Kind: vfs.KindWrite, Op: op, Ino: vfs.RootIno}

	t.Run("allow", func(t *testing.T) {
		perOp, batched, pe, be := drivePair(t, allowAll, false, read, 8, nil)
		assertSameOutcome(t, "allow", perOp, batched, pe, be)
		if pe != nil {
			t.Fatalf("on-profile window denied: %v", pe)
		}
	})

	t.Run("deny-off-profile", func(t *testing.T) {
		perOp, batched, pe, be := drivePair(t, lookupOnly, false, write, 5, nil)
		assertSameOutcome(t, "deny", perOp, batched, pe, be)
		if vfs.ToErrno(pe) != vfs.EACCES {
			t.Fatalf("off-profile window: %v, want EACCES", pe)
		}
		if batched.Denials() != 5 {
			t.Fatalf("batched denials = %d, want 5 (one per op of the window)", batched.Denials())
		}
		if len(batched.Violations()) != 5 {
			t.Fatalf("batched violations = %d, want 5", len(batched.Violations()))
		}
	})

	t.Run("audit-off-profile", func(t *testing.T) {
		perOp, batched, pe, be := drivePair(t, lookupOnly, true, write, 6, nil)
		assertSameOutcome(t, "audit", perOp, batched, pe, be)
		if pe != nil {
			t.Fatalf("audit mode denied the window: %v", pe)
		}
		if batched.Audited() != 6 {
			t.Fatalf("batched audited = %d, want 6", batched.Audited())
		}
	})

	t.Run("read-ceiling", func(t *testing.T) {
		capped := &Profile{
			Rules:        []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
			MaxReadBytes: 10,
		}
		// Complete one 16-byte read through each enforcer so both sit
		// past the ceiling before the window is decided.
		burn := func(e *Enforcer) {
			info := vfs.OpInfo{Kind: vfs.KindRead, Op: op, Ino: vfs.RootIno}
			if err := e.Intercept(&info, func() error { info.Bytes = 16; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		perOp, batched, pe, be := drivePair(t, capped, false, read, 4, burn)
		assertSameOutcome(t, "ceiling", perOp, batched, pe, be)
		if vfs.ToErrno(pe) != vfs.EACCES {
			t.Fatalf("over-ceiling window: %v, want EACCES", pe)
		}
		for _, v := range batched.Violations() {
			if v.Reason != "read ceiling" {
				t.Fatalf("violation reason = %q, want \"read ceiling\"", v.Reason)
			}
		}
	})

	t.Run("exempt-housekeeping", func(t *testing.T) {
		flush := vfs.OpInfo{Kind: vfs.KindFlush, Op: op, Ino: vfs.RootIno}
		perOp, batched, pe, be := drivePair(t, lookupOnly, false, flush, 3, nil)
		assertSameOutcome(t, "exempt", perOp, batched, pe, be)
		if pe != nil {
			t.Fatalf("housekeeping window denied: %v", pe)
		}
	})
}

// TestBatchAdmissionMatchesPerOpWindowed: the sliding-window rate
// ceilings must keep the same batched/per-op equivalence as the
// lifetime ceilings — the window sums advance only at completion, so
// every op of a pipelined window observes identical window state.
func TestBatchAdmissionMatchesPerOpWindowed(t *testing.T) {
	op := vfs.RootOp()
	op.PID = 11
	read := vfs.OpInfo{Kind: vfs.KindRead, Op: op, Ino: vfs.RootIno}
	write := vfs.OpInfo{Kind: vfs.KindWrite, Op: op, Ino: vfs.RootIno}
	// burn completes one data op of the given kind and size through an
	// enforcer, advancing its window sums.
	burn := func(kind vfs.OpKind, bytes int) func(e *Enforcer) {
		return func(e *Enforcer) {
			info := vfs.OpInfo{Kind: kind, Op: op, Ino: vfs.RootIno}
			if err := e.Intercept(&info, func() error { info.Bytes = bytes; return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("write-rate", func(t *testing.T) {
		p := &Profile{
			Rules:               []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
			WindowOps:           8,
			WriteBytesPerWindow: 10,
		}
		perOp, batched, pe, be := drivePair(t, p, false, write, 4, burn(vfs.KindWrite, 16))
		assertSameOutcome(t, "write-rate", perOp, batched, pe, be)
		if vfs.ToErrno(pe) != vfs.EACCES {
			t.Fatalf("saturated window admitted: %v, want EACCES", pe)
		}
		for _, v := range batched.Violations() {
			if v.Reason != "write rate" {
				t.Fatalf("violation reason = %q, want \"write rate\"", v.Reason)
			}
		}
	})

	t.Run("read-rate", func(t *testing.T) {
		p := &Profile{
			Rules:              []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
			WindowOps:          8,
			ReadBytesPerWindow: 10,
		}
		perOp, batched, pe, be := drivePair(t, p, false, read, 4, burn(vfs.KindRead, 16))
		assertSameOutcome(t, "read-rate", perOp, batched, pe, be)
		if vfs.ToErrno(pe) != vfs.EACCES {
			t.Fatalf("saturated window admitted: %v, want EACCES", pe)
		}
	})

	t.Run("under-rate", func(t *testing.T) {
		p := &Profile{
			Rules:               []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
			WindowOps:           8,
			WriteBytesPerWindow: 1 << 20,
		}
		perOp, batched, pe, be := drivePair(t, p, false, write, 6, burn(vfs.KindWrite, 16))
		assertSameOutcome(t, "under-rate", perOp, batched, pe, be)
		if pe != nil {
			t.Fatalf("under-rate window denied: %v", pe)
		}
	})

	t.Run("slid-window-recovers", func(t *testing.T) {
		// Saturate a 2-op window with writes, then complete two reads
		// through both enforcers: the write volume slides out and the
		// next write window must be admitted identically on both paths.
		p := &Profile{
			Rules:               []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
			WindowOps:           2,
			WriteBytesPerWindow: 10,
		}
		setup := func(e *Enforcer) {
			burn(vfs.KindWrite, 16)(e)
			burn(vfs.KindRead, 1)(e)
			burn(vfs.KindRead, 1)(e)
		}
		perOp, batched, pe, be := drivePair(t, p, false, write, 3, setup)
		assertSameOutcome(t, "slid-window", perOp, batched, pe, be)
		if pe != nil {
			t.Fatalf("slid window still denied: %v", pe)
		}
	})

	t.Run("audit-write-rate", func(t *testing.T) {
		p := &Profile{
			Rules:               []Rule{{Prefix: "/", Kinds: []string{"read", "write"}}},
			WindowOps:           8,
			WriteBytesPerWindow: 10,
		}
		perOp, batched, pe, be := drivePair(t, p, true, write, 5, burn(vfs.KindWrite, 16))
		assertSameOutcome(t, "audit-write-rate", perOp, batched, pe, be)
		if pe != nil {
			t.Fatalf("audit mode denied the window: %v", pe)
		}
		if batched.Audited() != 5 {
			t.Fatalf("batched audited = %d, want 5", batched.Audited())
		}
	})
}

// TestBatchViolationLogBounded: a huge denied window advances the denial
// counter in full but the violation log stays at its cap, exactly as the
// same ops denied one by one would have left it.
func TestBatchViolationLogBounded(t *testing.T) {
	lookupOnly := &Profile{Rules: []Rule{{Prefix: "/", Kinds: []string{"lookup"}}}}
	op := vfs.RootOp()
	write := vfs.OpInfo{Kind: vfs.KindWrite, Op: op, Ino: vfs.RootIno}
	n := maxViolations + 37
	perOp, batched, pe, be := drivePair(t, lookupOnly, false, write, n, nil)
	assertSameOutcome(t, "bounded", perOp, batched, pe, be)
	if got := batched.Denials(); got != int64(n) {
		t.Fatalf("denials = %d, want %d", got, n)
	}
	if got := len(batched.Violations()); got != maxViolations {
		t.Fatalf("violation log = %d entries, want cap %d", got, maxViolations)
	}
}
