package blobstore

import "sync"

// FaultOp selects which store operations a FaultRule applies to.
type FaultOp int

// Fault targets.
const (
	// FaultGet injects on Get — the missing/corrupted-chunk read path.
	FaultGet FaultOp = iota
	// FaultPut injects on Put — a full or failing backing device.
	FaultPut
)

// FaultRule injects one error on every Nth matching store operation —
// the blobstore-layer counterpart of vfs.FaultRule, so chaos runs can
// model a store losing or corrupting chunks underneath an otherwise
// healthy filesystem.
type FaultRule struct {
	// Op selects the operation class (default FaultGet).
	Op FaultOp
	// Err is returned instead of performing the operation; typically
	// ErrNotFound (lost chunk) or ErrCorrupt (bit rot).
	Err error
	// EveryN fires on every Nth matching operation; 0 or 1 means every
	// one.
	EveryN int64
}

// FaultInjector wraps a Store and applies FaultRules — the test double
// for flaky object storage. The filesystem above maps every injected
// error to EIO, which is exactly how a real kernel surfaces a backing
// store that lost data.
type FaultInjector struct {
	inner Store

	mu       sync.Mutex
	rules    []FaultRule
	counts   []int64
	injected int64
}

// NewFaultInjector wraps inner with the given rules.
func NewFaultInjector(inner Store, rules ...FaultRule) *FaultInjector {
	return &FaultInjector{inner: inner, rules: rules, counts: make([]int64, len(rules))}
}

// Injected reports how many operations have had errors injected.
func (f *FaultInjector) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// decide matches op against the rules and returns the injected error,
// if any fires.
func (f *FaultInjector) decide(op FaultOp) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Op != op || r.Err == nil {
			continue
		}
		f.counts[i]++
		n := r.EveryN
		if n <= 1 {
			n = 1
		}
		if f.counts[i]%n == 0 {
			f.injected++
			return r.Err
		}
	}
	return nil
}

// Put implements Store.
func (f *FaultInjector) Put(data []byte) (Ref, error) {
	if err := f.decide(FaultPut); err != nil {
		return "", err
	}
	return f.inner.Put(data)
}

// Get implements Store.
func (f *FaultInjector) Get(ref Ref) ([]byte, error) {
	if err := f.decide(FaultGet); err != nil {
		return nil, err
	}
	return f.inner.Get(ref)
}

// Stat implements Store.
func (f *FaultInjector) Stat(ref Ref) (Info, error) { return f.inner.Stat(ref) }

// Delete implements Store.
func (f *FaultInjector) Delete(ref Ref) error { return f.inner.Delete(ref) }

// Stats implements Store.
func (f *FaultInjector) Stats() Stats { return f.inner.Stats() }

// ChunkSize forwards the inner store's preferred chunk size, keeping
// chunk alignment identical with and without fault injection.
func (f *FaultInjector) ChunkSize() int { return storeChunkSize(f.inner) }

// storeChunkSize is s's preferred chunk size when it advertises one,
// else 4096.
func storeChunkSize(s Store) int {
	if c, ok := s.(Chunker); ok && c.ChunkSize() > 0 {
		return c.ChunkSize()
	}
	return 4096
}
