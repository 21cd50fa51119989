package phoronix

import (
	"os"
	"strings"
	"testing"

	"cntr/internal/policy"
)

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

// TestSeed42ProfileUnchanged: the profile generated from the seed-42
// recording is a function of every operation the twenty rows put through
// the chain at the top of their stack (kind, inode, name, result inode,
// bytes, PID, errno). Generating it twice from the recording gives the
// same bytes, and its rule count and hash are rows.golden's record/seed42
// line.
func TestSeed42ProfileUnchanged(t *testing.T) {
	rec := pass(t, shared().seed42)
	got := profileFields(rec.Profile(policy.GenOptions{}))
	if again := profileFields(rec.Profile(policy.GenOptions{})); again != got {
		t.Errorf("seed-42 profile differs between two generations: %s, then %s", got, again)
	}
	golden, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "record/seed42\tsuite\t"
	for _, l := range strings.Split(string(golden), "\n") {
		if want, ok := strings.CutPrefix(l, prefix); ok {
			if got != want {
				t.Errorf("seed-42 profile: %s; %s holds %s (%s rewrites it)", got, rowsGolden, want, updateCmd)
			}
			return
		}
	}
	t.Fatalf("%s has no %q line", rowsGolden, prefix)
}
