// Package stack assembles the two filesystem stacks every experiment in
// this repository compares:
//
//   - Native: syscall layer → kernel page cache → ext4-model filesystem
//     (memfs) → disk model. This is the paper's baseline, an ext4 volume
//     on EBS GP2.
//   - Cntr: syscall layer → kernel page cache (FUSE side) → FUSE kernel
//     connection → CntrFS server threads → CntrFS passthrough → the
//     *host* page cache → ext4-model filesystem → the same disk model.
//
// Both kernel-side caches draw pages from one shared memory budget. On the
// paper's configuration (fuse.PaperMountOptions) that reproduces the
// double-buffering behaviour it reports (§5.2.1): data travelling through
// CntrFS is cached twice and the effective cache halves. The default
// mount's server opens host files O_DIRECT for read-only opens
// (fuse.MountOptions.DirectRead), so what is only read is held once, in
// the cache above the mount; what is written is still buffered on both
// sides.
//
// The FUSE side of the Cntr stack — everything from the kernel-side cache
// down to CntrFS — is a Mount, assembled in one place and shared with
// the attach workflow (cntr.Attach serves a tools filesystem through
// NewMount), so the mount a session gets is the measured mount.
package stack

import (
	"cntr/internal/blobstore"
	"cntr/internal/cachecl"
	"cntr/internal/cachesvc"
	"cntr/internal/cntrfs"
	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// Config tunes a stack build.
type Config struct {
	// RAM is the machine memory available for page caches; defaults to
	// 16 GiB (the paper's m4.xlarge).
	RAM int64
	// Mount selects the FUSE mount options for the Cntr stack.
	Mount fuse.MountOptions
	// DirtyWindowNative is the native filesystem's writeback window
	// (how much dirty data accumulates before flushing); defaults to
	// 256 KiB, modelling ext4's comparatively eager flushing.
	DirtyWindowNative int64
	// DirtyWindowFuse is the FUSE writeback cache window; defaults to
	// 4 MiB ("our writeback buffer in the kernel holds the data longer
	// than the underlying filesystem", §5.2.2).
	DirtyWindowFuse int64
	// ReadAhead is the sequential readahead window (default 128 KiB).
	ReadAhead int64
	// NoDedupHardlinks turns off CntrFS's open+stat lookup path (on by
	// default; turning it off is an ablation).
	NoDedupHardlinks bool
	// Store, when non-nil, backs the stack's base filesystem content
	// (host filesystem for the Cntr stack). Used to run workloads over a
	// content-addressed or fault-injecting backend.
	Store blobstore.Store
	// CacheService, when non-nil, attaches the Cntr stack to a shared
	// cache tier: the mount acquires epoch leases through a cachecl
	// client, the host filesystem's backend store is wrapped so reads
	// consult the tier before the origin (and populate it after), and
	// disk charging moves from the host page cache to the store
	// boundary — each chunk lookup pays an intra-cluster round trip over
	// the readahead window's depth, plus its payload on a hit and an
	// origin volume I/O on a miss. Several NewCntr stacks sharing one
	// Store and one CacheService model a fleet of mounts on a common CAS.
	CacheService *cachesvc.Service
	// CacheMountID names this mount to the cache service (lease
	// identity); defaults to "mount-0".
	CacheMountID string
	// BelowCache interceptors sit between the kernel-side page cache and
	// the FUSE connection in the Cntr stack: every miss the cache turns
	// into FUSE traffic — readahead windows and writeback extents
	// included — flows through them. This is
	// where a policy.Enforcer belongs when it should gate what actually
	// crosses into CntrFS rather than what the application asked for.
	BelowCache []vfs.Interceptor
}

// Native is the baseline stack.
type Native struct {
	Clock *sim.Clock
	Model *sim.CostModel
	Disk  *sim.Disk
	Mem   *memfs.FS
	Cache *pagecache.Cache
	// Top is the filesystem workloads should use: the page cache, where
	// a syscall enters the stack.
	Top vfs.FS
}

// NewNative builds the baseline stack.
func NewNative(cfg Config) *Native {
	applyDefaults(&cfg)
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	mem, cache := hostSide(cfg, clock, model, cfg.Store, disk, pagecache.NewMemBudget(cfg.RAM))
	return &Native{Clock: clock, Model: model, Disk: disk, Mem: mem, Cache: cache, Top: cache}
}

// hostSide builds the ext4-model volume and the page cache a process
// doing regular syscalls on it sees. It is the whole of the baseline and
// the host the CntrFS server runs on, so that Figure 2 compares a mount
// with the volume it is mounted over and nothing else. chargeDisk is nil
// when the store charges its own I/O (see NewCntr).
func hostSide(cfg Config, clock *sim.Clock, model *sim.CostModel, store blobstore.Store,
	chargeDisk *sim.Disk, budget *pagecache.MemBudget) (*memfs.FS, *pagecache.Cache) {
	mem := memfs.New(memfs.Options{Store: store})
	return mem, pagecache.New(mem, clock, model, pagecache.Options{
		KeepCache:    true, // native page caches always survive re-opens
		Writeback:    true,
		DirtyWindow:  cfg.DirtyWindowNative,
		MaxWriteSize: 1 << 20, // ext4 can submit large bios
		ReadAhead:    cfg.ReadAhead,
		ChargeDisk:   chargeDisk,
		Budget:       budget,
	})
}

// Mount is the FUSE side of a CntrFS mount: the passthrough filesystem
// over some base, its server threads behind a FUSE connection, and the
// kernel-side page cache above that connection. It is what the paper
// measures (§5.2) and what the attach workflow hands to the user (§3.2),
// so it is assembled in exactly one place, newMount.
type Mount struct {
	FS     *cntrfs.FS
	Conn   *fuse.Conn
	Server *fuse.Server
	Kernel *pagecache.Cache
	// CacheCl is this mount's client on the shared cache tier (nil when
	// Config.CacheService is unset).
	CacheCl *cachecl.Client
}

// NewMount serves base through CntrFS over FUSE on the given clock and
// cost model, with a memory budget of cfg.RAM of its own. The served
// interceptors sit on the server side, between the FUSE server and
// CntrFS (outermost first), and see every request that crosses the
// wire; cfg.BelowCache sits on the kernel side of it.
func NewMount(base vfs.FS, clock *sim.Clock, model *sim.CostModel, cfg Config, served ...vfs.Interceptor) *Mount {
	applyDefaults(&cfg)
	return newMount(base, clock, model, cfg, pagecache.NewMemBudget(cfg.RAM), tierClient(cfg, clock, model), served)
}

// tierClient attaches a mount to cfg.CacheService: its lease epochs
// exist from before the first request until Mount.Close releases them.
func tierClient(cfg Config, clock *sim.Clock, model *sim.CostModel) *cachecl.Client {
	if cfg.CacheService == nil {
		return nil
	}
	mountID := cfg.CacheMountID
	if mountID == "" {
		mountID = "mount-0"
	}
	cl := cachecl.New(cfg.CacheService, mountID, clock, model)
	cl.Attach()
	return cl
}

// newMount is the one assembler. NewCntr enters here rather than through
// NewMount because its host side shares the budget and reads through
// the tier client.
func newMount(base vfs.FS, clock *sim.Clock, model *sim.CostModel, cfg Config,
	budget *pagecache.MemBudget, cacheCl *cachecl.Client, served []vfs.Interceptor) *Mount {
	cfs := cntrfs.New(base, cntrfs.Options{DedupHardlinks: !cfg.NoDedupHardlinks})
	if len(served) > 0 {
		// The served interceptors (cntr.Attach's Trace and Enforce) must
		// see and gate every open, opendir and lookup: the server keeps
		// answering OPEN and OPENDIR, and looks up only what LOOKUP asks.
		cfg.Mount.NoOpen = false
		cfg.Mount.NoOpendir = false
		cfg.Mount.ReaddirPlus = false
	}
	conn, srv := fuse.Mount(vfs.Chain(cfs, served...), clock, model, cfg.Mount)

	// Kernel-side cache above the FUSE mount. Its caching behaviour is
	// governed by the mount options CntrFS negotiated.
	ra := cfg.ReadAhead
	if !cfg.Mount.AsyncRead {
		// Without ASYNC_READ the kernel reads page by page.
		ra = 0
	}
	// Interceptors below the kernel cache see the mount's real FUSE
	// traffic; with no interceptors Chain returns conn as-is.
	kernel := pagecache.New(vfs.Chain(conn, cfg.BelowCache...), clock, model, pagecache.Options{
		KeepCache:    cfg.Mount.KeepCache,
		Writeback:    cfg.Mount.WritebackCache,
		DirtyWindow:  cfg.DirtyWindowFuse,
		MaxWriteSize: int64(cfg.Mount.MaxWrite),
		ReadAhead:    ra,
		FlushOnClose: true, // fuse_flush writes dirty pages on close
		Budget:       budget,
	})
	return &Mount{FS: cfs, Conn: conn, Server: srv, Kernel: kernel, CacheCl: cacheCl}
}

// Close unmounts the FUSE connection, releases any cache-tier leases
// (a released lease can never fence a later holder) and waits for the
// server.
func (m *Mount) Close() {
	m.Conn.Unmount()
	if m.CacheCl != nil {
		m.CacheCl.Release()
	}
	m.Server.Wait()
}

// Cntr is the full CntrFS stack: a host side (ext4-model filesystem,
// host page cache, disk) with a Mount over it.
type Cntr struct {
	*Mount
	Clock  *sim.Clock
	Model  *sim.CostModel
	Disk   *sim.Disk
	Host   *memfs.FS
	HostPC *pagecache.Cache
	Budget *pagecache.MemBudget
	// Tier is the wrapped store the host filesystem reads through when
	// Config.CacheService is set, and Origin the disk that charges tier
	// misses.
	Tier   *cachecl.Store
	Origin *sim.Disk
	// Top is the filesystem workloads should use: the kernel-side cache
	// over the FUSE mount, where a syscall enters the stack.
	Top vfs.FS
}

// NewCntr builds the CntrFS stack over a fresh host filesystem.
func NewCntr(cfg Config) *Cntr {
	applyDefaults(&cfg)
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)

	// With a shared cache tier configured, the backend store is wrapped
	// in the tier client's store layer and disk charging moves from the
	// host page cache to the store boundary: every miss the tier cannot
	// serve pays an origin-volume I/O on a dedicated origin disk whose
	// queue depth matches the readahead window in chunks (pipelined
	// per-chunk fetches amortize the seek like one extent-sized request
	// would), and every chunk lookup in front of it, hit or miss, is one
	// of the same window and amortizes its round trip over the same
	// depth. Charging the same traffic through the host page cache too
	// would double-count.
	var (
		tier      *cachecl.Store
		origin    *sim.Disk
		hostStore = cfg.Store
		chargePC  = disk
	)
	cacheCl := tierClient(cfg, clock, model)
	if cacheCl != nil {
		origin = sim.NewDisk(clock, model)
		origin.SetQueueDepth(int(cfg.ReadAhead / 4096))
		backend := cfg.Store
		if backend == nil {
			backend = blobstore.NewCAS(blobstore.CASOptions{})
		}
		tier = cachecl.WrapStore(backend, cacheCl, cachecl.StoreOptions{Origin: origin})
		hostStore = tier
		chargePC = nil
	}
	budget := pagecache.NewMemBudget(cfg.RAM)
	host, hostPC := hostSide(cfg, clock, model, hostStore, chargePC, budget)

	m := newMount(hostPC, clock, model, cfg, budget, cacheCl, nil)
	return &Cntr{
		Mount: m, Clock: clock, Model: model, Disk: disk, Host: host, HostPC: hostPC,
		Budget: budget, Tier: tier, Origin: origin, Top: m.Kernel,
	}
}

func applyDefaults(cfg *Config) {
	if cfg.RAM == 0 {
		cfg.RAM = 16 << 30
	}
	if cfg.DirtyWindowNative == 0 {
		cfg.DirtyWindowNative = 256 << 10
	}
	if cfg.DirtyWindowFuse == 0 {
		cfg.DirtyWindowFuse = 4 << 20
	}
	if cfg.ReadAhead == 0 {
		cfg.ReadAhead = 128 << 10
	}
	if cfg.Mount.MaxWrite == 0 {
		cfg.Mount = fuse.DefaultMountOptions()
	}
}
