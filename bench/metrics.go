package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// A metric is one named number of the benchmark. Virtual metrics (what
// the modelled machine would take) carry a virt_ unit; every other
// unit is a host cost (what the simulator takes to run) or a count.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression. Per-layer
	// metrics have none, and none is what BENCHMARK.json must show.
	Bound float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// endToEnd lists the gated metrics. Every one is defined on every
// workload and none is ever 0.
var endToEnd = []metric{
	{"virt_ms", "virt_ms", "lower", 0.01},
	{"virt_baseline_ms", "virt_ms", "lower", 0.01},
	{"virt_overhead_x", "x", "lower", 0.01},
	{"virt_op_p50_us", "virt_us", "lower", 0.01},
	{"virt_op_p99_us", "virt_us", "lower", 0.01},
	{"host_allocs_per_op", "allocs/op", "lower", 0.02},
	{"host_alloc_kb_per_op", "KiB/op", "lower", 0.02},
	{"host_heap_live_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"op_ok_ratio", "ratio", "higher", 0.001},
}

// Layers are this repo's modules, outermost first: the order a request
// crosses them on the CNTR side.
type layer int

const (
	layerKernelPC layer = iota
	layerFuse
	layerCntrfs
	layerHostPC
	layerMemfs
	layerCachecl
	layerBlobstore
	numLayers
)

var layerNames = [numLayers]string{
	"pagecache.kernel", "fuse", "cntrfs", "pagecache.host", "memfs",
	"cachecl", "blobstore",
}

// counter identifies one count read from a layer's public Stats().
type counter int

const (
	ctrKernelHits counter = iota
	ctrKernelMisses
	ctrKernelEvictions
	ctrKernelFlushedB
	ctrHostHits
	ctrHostMisses
	ctrHostEvictions
	ctrFuseRequests
	ctrFuseEntryHits
	ctrFuseEntryMisses
	ctrFuseAttrHits
	ctrFuseBatchFrames
	ctrFuseSteals
	ctrDiskReads
	ctrDiskWrites
	ctrDiskBytesRead
	ctrDiskBytesWritten
	ctrBlobPuts
	ctrBlobGets
	ctrClHits
	ctrClMisses
	ctrClNetBytes
	ctrClMoves
	ctrClFenced
	numCounters
)

// counters is a snapshot (or a difference of two) of every layer count.
type counters [numCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// perLayer lists the ungated metrics of single layers, in print order.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	for _, l := range layerNames {
		out = append(out,
			metric{Name: l + ".calls", Unit: "count", Better: "lower"},
			metric{Name: l + ".virt_self_ms", Unit: "virt_ms", Better: "lower"},
			metric{Name: l + ".virt_share", Unit: "ratio", Better: "lower"},
			metric{Name: l + ".host_self_ns_per_call", Unit: "ns", Better: "lower"},
		)
	}
	add := func(name, unit, better string) {
		out = append(out, metric{Name: name, Unit: unit, Better: better})
	}
	add("workload.virt_compute_ms", "virt_ms", "lower")
	add("workload.host_self_ms", "ms", "lower")
	add("pagecache.kernel.hit_ratio", "ratio", "higher")
	add("pagecache.kernel.evictions", "count", "lower")
	add("pagecache.kernel.flushed_kb", "KiB", "lower")
	add("pagecache.host.hit_ratio", "ratio", "higher")
	add("pagecache.host.evictions", "count", "lower")
	add("fuse.requests_per_kop", "1/kop", "lower")
	add("fuse.entry_hit_ratio", "ratio", "higher")
	add("fuse.attr_hits", "count", "higher")
	add("fuse.batch_frames", "count", "lower")
	add("fuse.steals", "count", "lower")
	add("sim.disk_reads", "count", "lower")
	add("sim.disk_writes", "count", "lower")
	add("sim.disk_kb_read", "KiB", "lower")
	add("sim.disk_kb_written", "KiB", "lower")
	add("sim.virt_spread_ppm", "ppm", "lower")
	add("blobstore.puts", "count", "lower")
	add("blobstore.gets", "count", "lower")
	add("blobstore.dedup_ratio", "ratio", "higher")
	add("cachecl.hits", "count", "higher")
	add("cachecl.misses", "count", "lower")
	add("cachecl.net_kb", "KiB", "lower")
	add("cachecl.moves", "count", "lower")
	add("cachecl.fenced", "count", "lower")
	add("cachesvc.hit_ratio", "ratio", "higher")
	add("cachesvc.puts", "count", "lower")
	add("cachesvc.evictions", "count", "lower")
	add("cachesvc.fenced_writes", "count", "lower")
	add("cachesvc.node_load_skew", "ratio", "lower")
	add("stack.host_ns_per_op", "ns", "lower")
	add("stack.host_ns_per_op_p25", "ns", "lower")
	add("stack.host_ns_per_op_p75", "ns", "lower")
	add("stack.host_ns_per_op_nproc", "ns", "lower")
	add("stack.trace_overhead_x", "x", "lower")
	add("phoronix.geomean_x", "x", "lower")
	add("phoronix.paper_log_err", "ln", "lower")
	return out
}

// manifest renders BENCHMARK.json from the tables above, so the file at
// the root of the repo and the program cannot disagree:
// go run -C bench . -manifest > BENCHMARK.json
func manifest() string {
	type why struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []why    `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, why{w.name, w.why})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(fmt.Sprintf("bench: manifest does not encode: %v", err))
	}
	return b.String()
}
