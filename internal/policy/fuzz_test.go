package policy

import (
	"reflect"
	"testing"

	"cntr/internal/vfs"
)

// FuzzLoad: a profile file is a trust boundary, so whatever its bytes,
// Load returns a profile or an error and never panics. A profile it
// accepts survives Marshal → Load unchanged, and compiles. The seeds are
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
}

// TestLoadFindings replays the inputs FuzzLoad has failed on, minimised.
func TestLoadFindings(t *testing.T) {
	for _, in := range []string{
		// An empty list Marshal omits loaded as empty, not absent.
		`{"source_runs":[]}`,
		`{"origins":[]}`,
		`{"any_path_kinds":[]}`,
	} {
		t.Run(in, func(t *testing.T) { checkLoad(t, []byte(in)) })
	}
}
