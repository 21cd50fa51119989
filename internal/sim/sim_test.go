package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Charge(LayerWorkload, 10*time.Millisecond)
	c.Charge(LayerWorkload, 5*time.Millisecond)
	if got := c.Now(); got != 15*time.Millisecond {
		t.Fatalf("Now() = %v, want 15ms", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClock()
	c.Charge(LayerWorkload, time.Second)
	c.Charge(LayerWorkload, -time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s", got)
	}
}

// TestClockConcurrentAdvance: the clock only adds, so goroutines charging
// it together end at exactly the sum of their charges, disk requests
// included.
func TestClockConcurrentAdvance(t *testing.T) {
	const workers = 8
	const per = 1000
	m := DefaultCostModel()
	write := m.DiskSeek + 4*m.DiskPerKB
	for _, tc := range []struct {
		name string
		step func(c *Clock, d *Disk)
		cost time.Duration
	}{
		{"advance", func(c *Clock, _ *Disk) { c.Charge(LayerWorkload, time.Nanosecond) }, time.Nanosecond},
		{"disk and advance", func(c *Clock, d *Disk) {
			d.Write(4096)
			c.Charge(LayerWorkload, time.Nanosecond)
		}, write + time.Nanosecond},
	} {
		c := NewClock()
		d := NewDisk(c, m)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					tc.step(c, d)
				}
			}()
		}
		wg.Wait()
		if got, want := c.Now(), workers*per*tc.cost; got != want {
			t.Fatalf("%s: Now() = %v, want %v", tc.name, got, want)
		}
		// The ledger splits the same sum by layer: the disk's requests to
		// LayerDisk, the rest to LayerWorkload.
		l := c.Ledger()
		if total(l) != c.Now() || l[LayerWorkload] != workers*per*time.Nanosecond {
			t.Fatalf("%s: ledger %s sums to %v, want %v with workload=%d", tc.name, l.Fields("run"), total(l), c.Now(), workers*per)
		}
	}
}

// TestLedgerFields: a ledger prints its nonzero buckets in layer order,
// and Sub is what each layer was charged between two readings.
func TestLedgerFields(t *testing.T) {
	c := NewClock()
	c.Charge(LayerFuse, 3)
	before := c.Ledger()
	c.Charge(LayerDisk, 5)
	c.Charge(LayerKernel, 7)
	c.Charge(LayerFuse, 11)
	c.Charge(LayerNet, 0)
	d := c.Ledger().Sub(before)
	if got, want := d.Fields("cntr"), "cntr.kernel=7 cntr.fuse=11 cntr.disk=5"; got != want {
		t.Fatalf("Fields = %q, want %q", got, want)
	}
	if total(d) != c.Now()-3 {
		t.Fatalf("the buckets sum to %v, want %v", total(d), c.Now()-3)
	}
}

// total is the sum of l's buckets.
func total(l Ledger) time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}

func TestCostModelCopyScalesLinearly(t *testing.T) {
	m := DefaultCostModel()
	one := m.CopyCost(1024)
	four := m.CopyCost(4096)
	if four != 4*one {
		t.Fatalf("CopyCost(4096) = %v, want 4*%v", four, one)
	}
}

func TestCostModelSpliceCheaperThanCopy(t *testing.T) {
	m := DefaultCostModel()
	if m.SpliceCost(1<<20) >= m.CopyCost(1<<20) {
		t.Fatalf("splice (%v) should be cheaper than copy (%v)",
			m.SpliceCost(1<<20), m.CopyCost(1<<20))
	}
}

func TestCostModelDiskSeekDominatesSmallIO(t *testing.T) {
	m := DefaultCostModel()
	read := func(n int) time.Duration {
		clock := NewClock()
		NewDisk(clock, m).Read(n)
		return clock.Now()
	}
	if small := read(512); small < m.DiskSeek {
		t.Fatalf("a 512-byte read took %v, want >= seek %v", small, m.DiskSeek)
	}
	// A large transfer must be bandwidth-bound, not latency-bound.
	if large := read(1 << 20); large < 2*m.DiskSeek {
		t.Fatalf("a 1 MiB read took %v, should be dominated by transfer", large)
	}
}

func TestCostModelFuseRoundTripPositive(t *testing.T) {
	m := DefaultCostModel()
	if m.FuseRoundTrip() <= 0 {
		t.Fatal("FuseRoundTrip() must be positive")
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	clock := NewClock()
	m := DefaultCostModel()
	d := NewDisk(clock, m)
	d.Write(4096)
	after1 := clock.Now()
	d.Write(4096)
	after2 := clock.Now()
	if after2-after1 < m.DiskSeek {
		t.Fatalf("second request completed too fast: %v", after2-after1)
	}
	st := d.Stats()
	if st.Writes != 2 || st.BytesWrite != 8192 {
		t.Fatalf("stats = %+v, want 2 writes / 8192 bytes", st)
	}
}

func TestDiskBatchingBeatsSmallWrites(t *testing.T) {
	// One 1MB write must be much cheaper than 256 individual 4KB writes.
	m := DefaultCostModel()
	clockA := NewClock()
	a := NewDisk(clockA, m)
	a.Write(1 << 20)
	batched := clockA.Now()

	clockB := NewClock()
	b := NewDisk(clockB, m)
	for i := 0; i < 256; i++ {
		b.Write(4096)
	}
	unbatched := clockB.Now()
	if unbatched < 3*batched {
		t.Fatalf("unbatched %v should far exceed batched %v", unbatched, batched)
	}
}

func TestDiskReadStats(t *testing.T) {
	clock := NewClock()
	d := NewDisk(clock, DefaultCostModel())
	d.Read(1000)
	d.Read(24)
	st := d.Stats()
	if st.Reads != 2 || st.BytesRead != 1024 {
		t.Fatalf("stats = %+v, want 2 reads / 1024 bytes", st)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same sequence")
		}
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		n := 32
		p := NewRand(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandBytesFills(t *testing.T) {
	b := make([]byte, 37)
	NewRand(3).Bytes(b)
	allZero := true
	for _, x := range b {
		if x != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Fatal("Bytes left buffer all zero")
	}
}
