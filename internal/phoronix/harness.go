// Package phoronix reimplements the disk benchmarks of the Phoronix test
// suite used in the paper's §5.2: twenty workloads spanning async I/O,
// web serving, compilation, file serving, mail serving, databases and
// archive handling. Each workload is a filesystem access-pattern
// generator; the harness runs it against the native stack and the CntrFS
// stack and reports the relative overhead exactly as Figure 2 does.
//
// Workload sizes are scaled down from the paper's (which assume a
// dedicated EC2 instance) by a constant factor so the suite runs in
// seconds; relative overheads are preserved because they are dominated
// by per-operation costs, which do not scale with volume.
package phoronix

import (
	"fmt"
	"strings"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/fuse"
	"cntr/internal/policy"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// Scale divides the paper's data-set sizes (64 keeps ratios while
// running fast: the paper's 4GB becomes 64MB).
const Scale = 64

// Ctx is the environment a workload runs in.
type Ctx struct {
	FS    vfs.FS
	Cli   *vfs.Client
	Clock *sim.Clock
	Model *sim.CostModel
	Disk  *sim.Disk
	Rand  *sim.Rand
}

// Compute advances the clock by n compute units (CPU-bound work).
func (c *Ctx) Compute(n int64) {
	c.Clock.Advance(time.Duration(n) * c.Model.Compute)
}

// Benchmark is one suite entry.
type Benchmark struct {
	// Name as shown in Figure 2.
	Name string
	// Workers is the workload's parallelism (wall-time conversion).
	Workers int
	// PaperOverhead is the relative overhead Figure 2 reports, kept for
	// the comparison table.
	PaperOverhead float64
	// Prepare seeds the backing store directly (no costs charged),
	// modelling pre-existing data sets. Optional.
	Prepare func(cli *vfs.Client) error
	// Warmup runs through the measured stack but outside the timed
	// window (e.g. priming caches). Optional.
	Warmup func(ctx *Ctx) error
	// Run executes the workload and returns the number of work units
	// (bytes or operations) performed; the harness measures elapsed
	// virtual time around it.
	Run func(ctx *Ctx) (int64, error)
}

// Result is one benchmark outcome on both stacks.
type Result struct {
	Name       string
	NativeTime time.Duration
	CntrTime   time.Duration
	Overhead   float64 // CntrTime / NativeTime, the Figure 2 ratio
	Work       int64
	// frames is the CntrFS mount's wire frames by opcode (warm-up and run).
	frames [len(fuse.ConnStats{}.Frames)]int64
}

// hardwareThreads is the m4.xlarge's parallelism for wall-clock
// conversion of multi-worker workloads.
const hardwareThreads = 4

// wall converts accumulated virtual CPU time to wall time for a
// workload with the given parallelism.
func wall(elapsed time.Duration, workers int) time.Duration {
	p := workers
	if p > hardwareThreads {
		p = hardwareThreads
	}
	if p < 1 {
		p = 1
	}
	return elapsed / time.Duration(p)
}

// stackConfig is the standard experiment configuration: scaled RAM and a
// deep FUSE writeback window (the kernel holds FUSE dirty data longer
// than the native filesystem flushes its own, §5.2.2).
func stackConfig() stack.Config {
	return stack.Config{
		RAM:               16 << 30 / Scale,
		DirtyWindowNative: 256 << 10,
		DirtyWindowFuse:   1 << 30 / Scale * 4, // 64MB at Scale=64
		ReadAhead:         128 << 10,
		Mount:             fuse.DefaultMountOptions(),
	}
}

// RunOn executes b against an arbitrary prepared stack. backing is the
// raw store beneath the stack for Prepare seeding.
func RunOn(b *Benchmark, fs vfs.FS, backing vfs.FS, clock *sim.Clock, model *sim.CostModel, disk *sim.Disk, seed uint64) (time.Duration, int64, error) {
	if b.Prepare != nil {
		if err := b.Prepare(vfs.NewClient(backing, vfs.Root())); err != nil {
			return 0, 0, fmt.Errorf("%s prepare: %w", b.Name, err)
		}
	}
	ctx := &Ctx{
		FS:    fs,
		Cli:   vfs.NewClient(fs, vfs.Root()),
		Clock: clock,
		Model: model,
		Disk:  disk,
		Rand:  sim.NewRand(seed),
	}
	if b.Warmup != nil {
		if err := b.Warmup(ctx); err != nil {
			return 0, 0, fmt.Errorf("%s warmup: %w", b.Name, err)
		}
	}
	start := clock.Now()
	work, err := b.Run(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	return wall(clock.Now()-start, b.Workers), work, nil
}

// Setup says what watches or perturbs a row on its CntrFS stack. The zero
// value is Figure 2's: stackConfig, seed 42, nothing between the workload
// and the mount.
type Setup struct {
	// Config is the stack. With RAM zero its four sizes are stackConfig's;
	// a zero Mount is fuse.DefaultMountOptions (stack.NewCntr).
	Config stack.Config
	// Seed drives the workload's random choices; zero means 42.
	Seed uint64
	// Record receives every operation of the row through a Run of the
	// row's own (fresh stack, fresh inode numbers).
	Record *policy.Collector
	// Enforce is compiled into an enforcer at syscall entry; with Audit,
	// off-profile operations are counted instead of denied.
	Enforce *policy.Profile
	Audit   bool
	// Faults are injected at syscall entry, behind an admitted operation;
	// their delays advance the stack's own clock.
	Faults []vfs.FaultRule
	// StoreFaults are injected below the host filesystem: its
	// content-addressed store (Config.Store, else a fresh one) fails by
	// these rules, counted from zero for every row.
	StoreFaults []blobstore.FaultRule
}

// Row is the outcome of one benchmark on one CntrFS stack. A failed
// workload is a row with Err set (and no Time), not an aborted sweep:
// a denial or an injected errno that the workload returns surfaces there
// (ChaosProfile says which rows drop a read's errno).
type Row struct {
	Name string
	Time time.Duration
	Work int64
	// Ops counts the operations Setup.Record was handed.
	Ops int64
	// Denials counts operations the enforcer rejected with EACCES,
	// Audited the off-profile operations it let through in audit mode;
	// Violations records the first of either (policy.Enforcer).
	Denials, Audited int64
	Violations       []policy.Violation
	// Injected counts the Setup.StoreFaults that fired.
	Injected int64
	Err      error
	// frames is the mount's wire frames by opcode (warm-up and run).
	frames [len(fuse.ConnStats{}.Frames)]int64
}

// Run measures b on a fresh Cntr stack assembled from s. It is the one
// place that knows the chain order: the recording Run outermost, so that
// it records a denial or an injected errno as it records a real one; the
// enforcer next, because policy decides at syscall entry; the fault
// injector innermost, modelling the backing store behind an admitted
// operation.
func Run(b *Benchmark, s Setup) Row {
	var enf *policy.Enforcer
	if s.Enforce != nil {
		var err error
		if enf, err = policy.NewEnforcer(s.Enforce, s.Audit); err != nil {
			return Row{Name: b.Name, Err: err}
		}
	}
	cfg := s.Config
	if cfg.RAM == 0 {
		std := stackConfig()
		cfg.RAM, cfg.ReadAhead = std.RAM, std.ReadAhead
		cfg.DirtyWindowNative, cfg.DirtyWindowFuse = std.DirtyWindowNative, std.DirtyWindowFuse
	}
	var store *blobstore.FaultInjector
	if len(s.StoreFaults) > 0 {
		if cfg.Store == nil {
			cfg.Store = blobstore.NewCAS(blobstore.CASOptions{})
		}
		store = blobstore.NewFaultInjector(cfg.Store, s.StoreFaults...)
		cfg.Store = store
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	c := stack.NewCntr(cfg)
	defer c.Close()

	row := Row{Name: b.Name}
	var ics []vfs.Interceptor
	if s.Record != nil {
		run := s.Record.NewRun()
		ics = append(ics, vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
			err := run.Intercept(info, next)
			row.Ops++
			return err
		}))
	}
	if enf != nil {
		ics = append(ics, enf)
	}
	if len(s.Faults) > 0 {
		inj := vfs.NewFaultInjector(s.Faults...)
		inj.Sleep = func(d time.Duration) { c.Clock.Advance(d) }
		ics = append(ics, inj)
	}
	row.Time, row.Work, row.Err = RunOn(b, vfs.Chain(c.Top, ics...), c.Host, c.Clock, c.Model, c.Disk, s.Seed)
	row.frames = c.Conn.Stats().Frames
	if enf != nil {
		row.Denials, row.Audited, row.Violations = enf.Denials(), enf.Audited(), enf.Violations()
	}
	if store != nil {
		row.Injected = store.Injected()
	}
	return row
}

// Sweep runs every benchmark of benches (nil: the twenty Suite rows)
// under the same setup, each on a stack of its own.
func Sweep(benches []*Benchmark, s Setup) []Row {
	if benches == nil {
		for i := range Suite {
			benches = append(benches, &Suite[i])
		}
	}
	rows := make([]Row, 0, len(benches))
	for _, b := range benches {
		rows = append(rows, Run(b, s))
	}
	return rows
}

// RunBenchmark measures b on a fresh native stack and a fresh Cntr stack
// and returns the Figure 2 row.
func RunBenchmark(b *Benchmark) (Result, error) {
	n := stack.NewNative(stackConfig())
	nt, work, err := RunOn(b, n.Top, n.Mem, n.Clock, n.Model, n.Disk, 42)
	if err != nil {
		return Result{}, err
	}
	c := Run(b, Setup{})
	if c.Err != nil {
		return Result{}, c.Err
	}
	return Result{
		Name: b.Name, NativeTime: nt, CntrTime: c.Time,
		Overhead: float64(c.Time) / float64(nt),
		Work:     work,
		frames:   c.frames,
	}, nil
}

// FormatRows renders a sweep: name, time and status always, a counter
// column when any row has a count in it.
func FormatRows(rows []Row) string {
	type column struct {
		head string
		val  func(Row) int64
	}
	var cols []column
	for _, c := range []column{
		{"traced ops", func(r Row) int64 { return r.Ops }},
		{"denials", func(r Row) int64 { return r.Denials }},
		{"audited", func(r Row) int64 { return r.Audited }},
	} {
		for _, r := range rows {
			if c.val(r) != 0 {
				cols = append(cols, c)
				break
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s", "Benchmark", "time")
	for _, c := range cols {
		fmt.Fprintf(&b, " %10s", c.head)
	}
	b.WriteString(" status\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %12v", r.Name, r.Time.Round(time.Microsecond))
		for _, c := range cols {
			fmt.Fprintf(&b, " %10d", c.val(r))
		}
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Fprintf(&b, " %s\n", status)
	}
	return b.String()
}
