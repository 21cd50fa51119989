package policy

import (
	"reflect"
	"strings"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// FuzzLoad: a profile file is a trust boundary, so whatever its bytes,
// Load returns a profile or an error and never panics. A profile it
// accepts survives Marshal → Load unchanged, compiles, and feeds an
// enforcer that admits a read and a write. The seeds are
// the profiles the other tests of this package load; what the fuzzer
// found is kept as rows of TestLoadFindings.
//
//	go test -run '^$' -fuzz FuzzLoad -fuzztime 15s ./internal/policy
func FuzzLoad(f *testing.F) {
	blob, err := headerProfile().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, seed := range append([]string{
		`{"rules":[{"prefix":"/data/","kinds":["read"]}]}`,
		`{"rules":[{"prefix":"/data","kinds":["any"]}]}`,
	}, malformedLifecycle...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkLoad)
}

// checkLoad is FuzzLoad's property for one input.
func checkLoad(t *testing.T, data []byte) {
	p, err := Load(data)
	if err != nil {
		return
	}
	blob, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal of an accepted profile: %v", err)
	}
	again, err := Load(blob)
	if err != nil {
		t.Fatalf("Load of its own Marshal: %v\n%s", err, blob)
	}
	if !reflect.DeepEqual(p, again) {
		t.Fatalf("Marshal → Load changed the profile:\nloaded %#v\nreload %#v", p, again)
	}
	m := p.Compile()
	for _, r := range p.Rules {
		m.Allows(vfs.KindRead, r.Prefix)
	}
	// In audit mode every operation reaches memfs, so the write and the
	// read complete and advance the enforcer's window. Nothing is
	// deferred: a panic fails the input instead of a deferred Release
	// blocking on the lock the panicking call held.
	enf, err := NewEnforcer(p, true)
	if err != nil {
		t.Fatalf("Load accepted a profile NewEnforcer refuses: %v", err)
	}
	cli := vfs.NewClient(vfs.Chain(memfs.New(memfs.Options{}), enf), vfs.Root())
	f, err := cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatalf("open through an auditing enforcer: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("write through an auditing enforcer: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("read through an auditing enforcer: %v", err)
	}
	f.Close()
}

// TestLoadFindings replays the inputs FuzzLoad has failed on, minimised.
func TestLoadFindings(t *testing.T) {
	for _, in := range []string{
		// An empty list Marshal omits loaded as empty, not absent.
		`{"source_runs":[]}`,
		`{"origins":[]}`,
		`{"any_path_kinds":[]}`,
		// A profile written while profiles listed their origins.
		parentProfile,
		// A window no enforcer can allocate: its first read panicked
		// holding the enforcer's lock.
		`{"window_ops":4611686018427387904}`,
	} {
		t.Run(in, func(t *testing.T) { checkLoad(t, []byte(in)) })
	}
}

// parentProfile is a profile as written while profiles listed the
// origins they were recorded from: every one carries "origins": [0].
const parentProfile = `{"version":2,"generation":1,"runs":1,"origins":[0],"rules":[{"prefix":"/data","kinds":["read"]}],"window_ops":8,"read_bytes_per_window":4096}`

// TestLoadParentProfile: a profile with "origins" loads as the same
// profile without the key, so it enforces the same decisions, and
// re-marshals without it.
func TestLoadParentProfile(t *testing.T) {
	p, err := Load([]byte(parentProfile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Load([]byte(strings.Replace(parentProfile, `"origins":[0],`, "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("with origins %+v, without %+v", p, want)
	}
	m := p.Compile()
	if !m.Allows(vfs.KindRead, "/data/f") || m.Allows(vfs.KindWrite, "/data/f") || m.Allows(vfs.KindRead, "/etc") {
		t.Fatalf("decisions of %+v changed", p)
	}
	blob, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "origins") {
		t.Fatalf("re-marshalled with its origins:\n%s", blob)
	}
}
