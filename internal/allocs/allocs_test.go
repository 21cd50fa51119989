package allocs

import "testing"

// TestPinsThatFallStayFallen: a ceiling line reads back as written; a run
// above the ceiling or below the range seen breaks it, one within holds,
// and a ceiling without a range has no floor; -update restarts the range
// at the first measurement of a process and widens it with the rest, puts
// the ceiling at most a tenth above the range, and raises it only to hold
// the range.
func TestPinsThatFallStayFallen(t *testing.T) {
	const key = "phoronix\tMeta-Storm\t"
	p, err := find(key+"objects<=137 (seen 121-124)\n", key)
	if err != nil || p != (pin{ceiling: true, floor: true, n: 137, lo: 121, hi: 124}) {
		t.Fatalf("find: %+v, %v", p, err)
	}
	if got := p.String(); got != "objects<=137 (seen 121-124)" {
		t.Fatalf("String: %q", got)
	}
	for got, broken := range map[float64]bool{120: true, 121: false, 130: false, 137: false, 138: true} {
		if msg := p.check(got); (msg != "") != broken {
			t.Errorf("%v at %g: %q, want broken %v", p, got, msg, broken)
		}
	}
	// A run of one process measuring 70, 73 and 68.
	p = p.record(70, true, 137).record(73, false, 137).record(68, false, 137)
	if want := (pin{ceiling: true, floor: true, n: 80, lo: 68, hi: 73}); p != want {
		t.Fatalf("after -update: %v, want %v", p, want)
	}
	// The ceiling rises only to hold what a run measured.
	if q := p.record(90, true, p.n); q.n != 90 || q.lo != 90 {
		t.Errorf("a run measuring 90 over %v: %v, want the ceiling at 90", p, q)
	}
	if q := p.record(60, true, p.n); q.n != 66 || q.lo != 60 {
		t.Errorf("a run measuring 60 over %v: %v, want the ceiling at 66", p, q)
	}
	if q := (pin{n: 3}).record(4, true, 3); q != (pin{n: 4}) {
		t.Errorf("an exact pin after a run measuring 4: %v", q)
	}
	q, err := find(key+"objects<=80\n", key)
	if err != nil || q != (pin{ceiling: true, n: 80}) || q.String() != "objects<=80" {
		t.Fatalf("a ceiling without a range: %+v, %v", q, err)
	}
	if q.check(0) != "" || q.check(80) != "" || q.check(81) == "" {
		t.Errorf("%v: a floor, or no ceiling", q)
	}
	if q = q.record(73, true, 80).record(68, false, 80); q.n != 80 || q.String() != "objects<=80" {
		t.Errorf("%v after a run measuring 73 and 68, want objects<=80", q)
	}
	if q, err := find(key+"objects=0\n", key); err != nil || q.check(0) != "" || q.check(1) == "" {
		t.Errorf("exact 0: %v, %v", q, err)
	}
}
