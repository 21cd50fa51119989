package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cntr/internal/phoronix"
	"cntr/internal/vfs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints: the driver computes its spreads with it.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in             []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{4, 2, 3, 1}, 2.5, 1.25, 3.75},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{5, 1, 9}, 5, 1, 9},
		{[]float64{2.5, 2.5, 2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{70, 10, 60, 20, 50, 30, 40}, 40, 20, 60},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		if got := median(tc.in); !near(got, tc.median) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.median)
		}
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestPercentiles(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// A tail percentile is reported only with ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
		{2089, 99}, {9999, 99}, {10000, 99.9}, {41016, 99.9}, {100000, 99.99}, {1014694, 99.99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = p%v (%d beyond), want p%v", tc.n, got, samplesBeyond(tc.n, got), tc.want)
		}
		if p := highestPercentile(tc.n); p != 50 && samplesBeyond(tc.n, p) < 10 {
			t.Errorf("highestPercentile(%d) = p%v leaves only %d samples beyond", tc.n, p, samplesBeyond(tc.n, p))
		}
	}
}

// A synthetic three-layer nest: 120ns phase, of which the top layer's
// spans cover 100, its child's 70 and the grandchild's 30.
func TestSelfTimeArithmetic(t *testing.T) {
	chain := []layer{layerKernelPC, layerFuse, layerCntrfs}
	var s spanSums
	s.virt[layerKernelPC], s.virt[layerFuse], s.virt[layerCntrfs] = 100, 70, 30
	s.host[layerKernelPC], s.host[layerFuse], s.host[layerCntrfs] = 1000, 400, 150
	self, err := s.self(chain, 120, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if self.virt[layerKernelPC] != 30 || self.virt[layerFuse] != 40 || self.virt[layerCntrfs] != 30 || self.computeVirt != 20 {
		t.Errorf("virtual self times %v + compute %d, want 30/40/30 + 20", self.virt[:3], self.computeVirt)
	}
	if self.host[layerKernelPC] != 600 || self.host[layerFuse] != 250 || self.host[layerCntrfs] != 150 || self.computeHost != 100 {
		t.Errorf("host self times %v + compute %d, want 600/250/150 + 100", self.host[:3], self.computeHost)
	}

	// Spans the generator enters directly (the fleet's attr calls into
	// cachecl) belong to the layer, not to its parent or to compute.
	chain = []layer{layerKernelPC, layerMemfs, layerCachecl}
	s = spanSums{}
	s.virt[layerKernelPC], s.virt[layerMemfs], s.virt[layerCachecl] = 100, 60, 50
	s.direct.virt[layerCachecl] = 15
	if self, err = s.self(chain, 130, 0); err != nil {
		t.Fatal(err)
	}
	if self.virt[layerKernelPC] != 40 || self.virt[layerMemfs] != 25 || self.virt[layerCachecl] != 50 || self.computeVirt != 15 {
		t.Errorf("with direct spans: self %d/%d/%d + compute %d, want 40/25/50 + 15",
			self.virt[layerKernelPC], self.virt[layerMemfs], self.virt[layerCachecl], self.computeVirt)
	}
	var sum int64 = self.computeVirt
	for _, v := range self.virt {
		sum += v
	}
	if sum != 130 {
		t.Errorf("self times and compute add up to %d, want the phase's 130", sum)
	}

	// A child that covers more than its parent is not nested in it.
	s = spanSums{}
	s.virt[layerKernelPC], s.virt[layerFuse] = 50, 60
	if _, err := s.self([]layer{layerKernelPC, layerFuse}, 100, 0); err == nil || !strings.Contains(err.Error(), "pagecache.kernel") {
		t.Errorf("negative self time: got %v, want an error naming pagecache.kernel", err)
	}
	if _, err := s.self([]layer{layerKernelPC}, 40, 0); err == nil {
		t.Error("spans longer than the phase: got no error")
	}
}

func TestFingerprintTamperDetection(t *testing.T) {
	side := func(reads, writes int64) sideFP {
		return sideFP{Ops: map[string]int64{"lookup": 7, "read": reads, "write": writes},
			BytesRead: reads * 4096, BytesWritten: writes * 4096, Errors: 1}
	}
	want := []rowFP{
		{Name: "Plain", Work: 10, Native: side(5, 5), Cntr: side(5, 5)},
		{Name: "Drawn", Seeded: true, Work: 20, Native: side(8, 2), Cntr: side(8, 2)},
	}
	clone := func() []rowFP {
		out := make([]rowFP, len(want))
		for i, r := range want {
			out[i] = r
			out[i].Native.Ops = map[string]int64{}
			out[i].Cntr.Ops = map[string]int64{}
			for k, v := range r.Native.Ops {
				out[i].Native.Ops[k] = v
			}
			for k, v := range r.Cntr.Ops {
				out[i].Cntr.Ops[k] = v
			}
		}
		return out
	}
	if err := checkFingerprint(want, clone(), fingerprintSeed, false); err != nil {
		t.Fatalf("identical op stream: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(rows []rowFP) []rowFP
		seed   uint64
		names  string // "" means the tampered stream must pass
	}{
		{"fewer lookups", func(r []rowFP) []rowFP { r[0].Cntr.Ops["lookup"]--; return r }, fingerprintSeed, `"Plain", CNTR side`},
		{"a new op kind", func(r []rowFP) []rowFP { r[0].Native.Ops["fsync"] = 1; return r }, fingerprintSeed, `"Plain", native side`},
		{"fewer bytes", func(r []rowFP) []rowFP { r[0].Cntr.BytesRead -= 1; return r }, fingerprintSeed, "bytes read"},
		{"less work", func(r []rowFP) []rowFP { r[0].Work = 9; return r }, fingerprintSeed, "work units"},
		{"an error more", func(r []rowFP) []rowFP { r[1].Cntr.Errors++; return r }, 7, `"Drawn", CNTR side`},
		{"a row dropped", func(r []rowFP) []rowFP { return r[:1] }, fingerprintSeed, "1 rows ran"},
		{"a row renamed", func(r []rowFP) []rowFP { r[1].Name = "Other"; return r }, fingerprintSeed, `"Other"`},
		{"other sizes at the fingerprint seed", func(r []rowFP) []rowFP {
			r[1].Cntr.BytesWritten += 100
			return r
		}, fingerprintSeed, `"Drawn"`},
		{"other sizes at another seed", func(r []rowFP) []rowFP {
			r[1].Native.BytesRead, r[1].Cntr.BytesWritten, r[1].Work = 1, 2, 33
			return r
		}, 7, ""},
		{"fewer writes at another seed", func(r []rowFP) []rowFP { r[1].Cntr = side(8, 1); return r }, 7, "write ops"},
		{"unseeded row at another seed", func(r []rowFP) []rowFP { r[0].Cntr.BytesRead++; return r }, 7, `"Plain"`},
	} {
		err := checkFingerprint(want, tc.tamper(clone()), tc.seed, false)
		switch {
		case tc.names == "" && err != nil:
			t.Errorf("%s: %v, want it to pass", tc.name, err)
		case tc.names != "" && (err == nil || !strings.Contains(err.Error(), tc.names)):
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.names)
		}
	}
	// A host-cost round has no native side; its absence is not tampering.
	rows := clone()
	rows[0].Native, rows[1].Native = sideFP{}, sideFP{}
	if err := checkFingerprint(want, rows, fingerprintSeed, true); err != nil {
		t.Errorf("CNTR-only round: %v", err)
	}
}

// One round of a workload end to end, traced: keeps the benchmark
// compiling and its checks (fingerprint, output, trace) passing under
// go test. read builds a 130 MB data set, so -short leaves it out.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"meta", "fleet", "read"} {
		if name == "read" && testing.Short() {
			continue
		}
		rep, err := findWorkload(name).run(fingerprintSeed, 0, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range rep.problems {
			t.Errorf("%s: %s", name, p)
		}
		if rep.attempted < 1 || rep.failed != 0 {
			t.Errorf("%s: %d ops attempted, %d failed", name, rep.attempted, rep.failed)
		}
		for _, m := range endToEnd {
			if v, ok := rep.e2e[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, m.Name, v)
			}
		}
		for _, m := range perLayer {
			if v, ok := rep.layer[m.Name]; !ok || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", name, m.Name, v, ok)
			}
		}
		var layers float64
		for _, l := range layerNames {
			layers += rep.layer[l+".virt_self_ms"]
		}
		if total := layers + rep.layer["workload.virt_compute_ms"]; !near(total/rep.e2e["virt_ms"], 1) {
			t.Errorf("%s: layers and compute add up to %v virtual ms, virt_ms is %v", name, total, rep.e2e["virt_ms"])
		}
	}
}

// The benchmark measures the program, not a copy of it: a row run here
// takes the virtual time internal/phoronix's own harness (what
// cmd/phoronix prints as Figure 2) reports for it.
func TestRowsMatchPhoronixHarness(t *testing.T) {
	b, ok := findRow("PostMark")
	if !ok {
		t.Fatal("no PostMark row")
	}
	want, err := phoronix.RunBenchmark(&b)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	native, err := runUnit(&b, nativeStack(stackConfig()), fingerprintSeed, t0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := cntrStack(stackConfig())
	defer s.close()
	cntr, err := runUnit(&b, s, fingerprintSeed, t0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if native.virt != want.NativeTime || cntr.virt != want.CntrTime {
		t.Errorf("PostMark: %v native, %v CNTR; phoronix.RunBenchmark reports %v and %v",
			native.virt, cntr.virt, want.NativeTime, want.CntrTime)
	}
}

func TestProbeCountsOnlyWhileArmed(t *testing.T) {
	s := nativeStack(stackConfig())
	p := &probe{clock: s.clock}
	cli := vfs.NewClient(vfs.Chain(s.top, p), vfs.Root())
	if err := cli.WriteFile("/before", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := p.stream.total(); n != 0 {
		t.Fatalf("%d ops counted before the measured phase", n)
	}
	p.armed = true
	if err := cli.WriteFile("/during", make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/missing"); err == nil {
		t.Fatal("stat of a missing file succeeded")
	}
	st := p.stream
	if st.bytesWritten != 100 || st.ops[vfs.KindCreate] != 1 || st.ops[vfs.KindWrite] != 1 {
		t.Errorf("armed probe saw %d bytes written, %d creates, %d writes; want 100, 1, 1",
			st.bytesWritten, st.ops[vfs.KindCreate], st.ops[vfs.KindWrite])
	}
	if st.errors != 2 { // the ENOENT lookup before the create, and the missing file
		t.Errorf("armed probe saw %d errors, want 2", st.errors)
	}
}

// BENCHMARK.json at the root of the repo is generated from the tables
// in metrics.go and workloads.go; the two must not drift apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != manifest() {
		t.Error("BENCHMARK.json differs from `go run -C bench . -manifest`; regenerate it")
	}
}
