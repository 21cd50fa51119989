package phoronix

import (
	"fmt"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// MultiMountOptions configures the shared-cache fleet experiment: N
// CntrFS mounts over one content-addressed store, each cold-reading the
// same image tree of fleetDirs images, with or without a shared cache
// tier between them.
type MultiMountOptions struct {
	// Mounts is the fleet size (default 2, the paper-scale experiments
	// use 2-8).
	Mounts int
	// UseService attaches every mount to one shared cachesvc tier; when
	// false each mount pays the origin volume for every cold read.
	UseService bool
	// Nodes and Replicas size the tier's node set: shards are placed on
	// a primary plus Replicas replica nodes (defaults 1 node, 0
	// replicas — the single-node reference tier).
	Nodes    int
	Replicas int
	// KillNodeMid fails the highest-id node once half the fleet has done
	// its cold read: with replicas the surviving copies must keep
	// serving, so the later mounts' hit ratio holds and the fleet never
	// re-pays the origin. The kill re-replicates the dead node's shards
	// before the next mount reads. Requires Nodes >= 2.
	KillNodeMid bool
}

// MultiMountResult reports the fleet's cold-read economics.
type MultiMountResult struct {
	Mounts int
	// ColdReadTotal is the fleet-wide sum of per-mount cold-read
	// virtual time; ColdReadMax the slowest single mount.
	ColdReadTotal time.Duration
	ColdReadMax   time.Duration
	// BytesRead is the logical volume the fleet read.
	BytesRead int64
	// HitRatio is the shared tier's hit ratio over the measured phase
	// (0 without a service).
	HitRatio float64
	// TierStats is the service's counter snapshot after the run (zero
	// value without a service).
	TierStats cachesvc.Stats
	// NodeStats is the per-node counter split after the run (empty
	// without a service).
	NodeStats []cachesvc.NodeStats
}

// The fleet's image tree: fleetDirs image directories of fleetFiles
// files of fleetFileSize bytes each, 3 MiB in all.
const (
	fleetDirs     = 16
	fleetFiles    = 3
	fleetFileSize = 64 << 10
)

func (o *MultiMountOptions) defaults() {
	if o.Mounts <= 0 {
		o.Mounts = 2
	}
}

// multiMountPath names file f of image d — the same tree on every mount.
func multiMountPath(d, f int) string {
	return fmt.Sprintf("/images/img%03d/layer%d.bin", d, f)
}

// multiMountContent generates the file's deterministic content: every
// mount materializes identical bytes for a path, so a shared CAS
// assigns identical chunk refs fleet-wide — the identity the tier (and
// registry chunk dedup) keys on. Content differs between files so the
// working set is fleetDirs*fleetFiles*fleetFileSize distinct bytes, not one
// degenerate chunk.
func multiMountContent(d, f int, size int64) []byte {
	buf := make([]byte, size)
	for i := range buf {
		// Cheap per-byte mix over (file identity, block, offset) so every
		// 4KB block in the working set is distinct content — the store
		// must hold the whole tree's bytes, and the tier is
		// exercised on a real working set rather than one folded chunk.
		x := uint32(d*1000003 + f*7919 + (i>>12)*104729 + i)
		x ^= x >> 13
		x *= 2654435761
		buf[i] = byte(x >> 24)
	}
	return buf
}

// RunMultiMount executes the fleet experiment and returns its
// economics. The flow is: build N Cntr stacks over one shared CAS
// (attached to one cache tier when UseService), seed the identical
// image tree into every mount's host filesystem, drop whatever the
// seeding phase left in the tier (Service.Reset — leases survive), then
// measure each mount's cold read of the full tree on its own clock. With
// the tier, the first mount's misses read-populate it and every later
// mount's cold read is served at pipelined tier-lookup cost; without it,
// every mount pays the origin volume in full.
func RunMultiMount(opts MultiMountOptions) (MultiMountResult, error) {
	opts.defaults()
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	var svc *cachesvc.Service
	if opts.UseService {
		svc = cachesvc.New(cachesvc.Options{Nodes: opts.Nodes, Replicas: opts.Replicas})
	}

	mounts := make([]*stack.Cntr, opts.Mounts)
	for i := range mounts {
		cfg := stackConfig()
		cfg.Store = cas
		if svc != nil {
			cfg.CacheService = svc
			cfg.CacheMountID = fmt.Sprintf("mount-%d", i)
		}
		mounts[i] = stack.NewCntr(cfg)
		defer mounts[i].Close()
	}

	// Seed every mount's host tree (outside the measured window). The
	// write-through publishes this makes are dropped below: the measured
	// phase starts from an empty tier.
	for _, m := range mounts {
		cli := vfs.NewClient(m.Host, vfs.Root())
		for d := 0; d < fleetDirs; d++ {
			for f := 0; f < fleetFiles; f++ {
				p := multiMountPath(d, f)
				if err := cli.MkdirAll(parentDir(p), 0o755); err != nil {
					return MultiMountResult{}, err
				}
				if err := cli.WriteFile(p, multiMountContent(d, f, fleetFileSize), 0o644); err != nil {
					return MultiMountResult{}, err
				}
			}
		}
	}
	if svc != nil {
		svc.Reset()
	}

	res := MultiMountResult{Mounts: opts.Mounts}
	for i, m := range mounts {
		if svc != nil && opts.KillNodeMid && i == opts.Mounts/2 && i > 0 {
			if id := svc.NumNodes() - 1; id > 0 {
				if err := svc.KillNode(id); err != nil {
					return res, err
				}
			}
		}
		cli := vfs.NewClient(m.Top, vfs.Root())
		start := m.Clock.Now()
		for d := 0; d < fleetDirs; d++ {
			for f := 0; f < fleetFiles; f++ {
				p := multiMountPath(d, f)
				// Metadata through the tier first: the publishing mount
				// pays a miss plus an attr publish, later mounts hit.
				if m.CacheCl != nil {
					if _, ok := m.CacheCl.GetAttr(p); !ok {
						attr, err := cli.Stat(p)
						if err != nil {
							return res, err
						}
						m.CacheCl.PutAttr(p, []byte(fmt.Sprintf("%d:%d", attr.Ino, attr.Size)))
					}
				}
				data, err := cli.ReadFile(p)
				if err != nil {
					return res, err
				}
				if len(data) != fleetFileSize {
					return res, fmt.Errorf("mount %d read %d bytes of %s, want %d",
						i, len(data), p, fleetFileSize)
				}
				res.BytesRead += int64(len(data))
			}
		}
		elapsed := m.Clock.Now() - start
		res.ColdReadTotal += elapsed
		if elapsed > res.ColdReadMax {
			res.ColdReadMax = elapsed
		}
	}
	if svc != nil {
		res.TierStats = svc.Stats()
		res.HitRatio = res.TierStats.HitRatio()
		res.NodeStats = svc.NodeStats()
	}
	return res, nil
}

// parentDir returns the directory portion of a slash path.
func parentDir(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			if i == 0 {
				return "/"
			}
			return p[:i]
		}
	}
	return "/"
}
