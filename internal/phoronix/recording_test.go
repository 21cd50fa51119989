package phoronix

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"cntr/internal/policy"
)

// recordSuite records a clean run of the twenty rows at seed.
func recordSuite(t *testing.T, seed uint64) *policy.Collector {
	t.Helper()
	col := policy.NewCollector()
	for _, r := range Sweep(nil, Setup{Record: col, Seed: seed}) {
		if r.Err != nil {
			t.Fatalf("recording the suite at seed %d: %v", seed, r.Err)
		}
	}
	return col
}

// recordedProfile records a clean run of b alone and generates the
// profile to replay it under.
func recordedProfile(t *testing.T, b *Benchmark) *policy.Profile {
	t.Helper()
	col := policy.NewCollector()
	if r := Run(b, Setup{Record: col}); r.Err != nil {
		t.Fatalf("%s clean recording: %v", b.Name, r.Err)
	}
	prof := col.Profile(policy.GenOptions{})
	if len(prof.Rules) == 0 {
		t.Fatalf("%s: clean trace generated no rules", b.Name)
	}
	return prof
}

// suiteRecording is the seed-42 recording, taken once per test binary:
// a million entries and ~3 s, and more than one test wants its profile.
// Callers only read it (Profile, Snapshot).
func suiteRecording(t *testing.T) *policy.Collector {
	t.Helper()
	seed42.once.Do(func() { seed42.col = recordSuite(t, 42) })
	if seed42.col == nil {
		t.Fatal("the seed-42 suite recording failed in an earlier test")
	}
	return seed42.col
}

var seed42 struct {
	once sync.Once
	col  *policy.Collector
}

// TestSeed42ProfileUnchanged: the profile generated from the seed-42
// recording is a function of every operation the twenty rows put through
// the chain at the top of their stack (kind, inode, name, result inode,
// bytes, PID, errno). Its hash was taken before the chain's dispatcher
// and the client's request contexts became recycled objects (commit
// 0d0e57c; the same value PR 22 recorded), and holds after.
func TestSeed42ProfileUnchanged(t *testing.T) {
	const want = "209adaef398e6b08eeda599e26322d2321613ff4a82339b148836112160e58f5"
	prof := suiteRecording(t).Profile(policy.GenOptions{})
	b, err := prof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want || len(prof.Rules) != 2377 {
		t.Errorf("seed-42 profile: %d rules, sha256 %s; want 2377 rules, %s", len(prof.Rules), got, want)
	}
}
