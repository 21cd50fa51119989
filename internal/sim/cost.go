package sim

import "time"

// CostModel holds the calibrated virtual-time costs of the low-level
// operations that dominate filesystem performance. The defaults are
// calibrated so that the Phoronix-style suite in internal/phoronix
// reproduces the relative overheads reported in Figure 2 of the paper:
// metadata-heavy workloads pay heavily for FUSE round trips, cached data
// paths are nearly free, and writeback batching can make the FUSE stack
// faster than the native baseline for sync-heavy writers.
//
// The absolute values are loosely modelled on an m4.xlarge EC2 instance
// with a GP2 EBS volume (the paper's testbed): ~1-2us syscall, ~4us
// context switch, ~100us SSD access over a network-attached volume.
type CostModel struct {
	// Syscall is the base cost of entering and leaving the kernel once.
	Syscall time.Duration

	// ContextSwitch is the cost of switching between the kernel and the
	// FUSE userspace server (one direction). A FUSE request pays this
	// twice, plus twice more for the reply wakeups.
	ContextSwitch time.Duration

	// CopyPerKB is the cost of copying one kibibyte of data between
	// kernel and user space. Splice avoids this for the data payload.
	CopyPerKB time.Duration

	// SplicePerKB is the per-KB cost of moving data by reference through
	// a kernel pipe (remapping pages rather than copying).
	SplicePerKB time.Duration

	// PageCacheHit is the cost of serving one 4KB page from the page
	// cache (lookup in the radix tree plus the memcpy to userspace).
	PageCacheHit time.Duration

	// InodeOp is the in-memory cost of one metadata operation inside a
	// filesystem (hash-table and dentry work).
	InodeOp time.Duration

	// DiskSeek is the fixed latency of one disk I/O request (network
	// round trip to the EBS volume plus SSD access).
	DiskSeek time.Duration

	// DiskPerKB is the transfer cost per KB of disk I/O, i.e. the
	// inverse of the sequential bandwidth of the volume.
	DiskPerKB time.Duration

	// WakeupLatency is the scheduler latency for waking a blocked
	// thread; used when FUSE server threads contend on the request
	// queue.
	WakeupLatency time.Duration

	// LockContention is the extra cost a FUSE server thread pays per
	// request for each additional thread sharing the device queue. It
	// models cacheline bouncing on /dev/fuse and explains the modest
	// throughput loss with many threads (Figure 4).
	LockContention time.Duration

	// XattrLookup is the cost of one extended-attribute lookup that the
	// kernel cannot cache (security.capability on every write, §5.2.2).
	XattrLookup time.Duration

	// Compute is the cost per simulated "compute unit"; CPU-bound
	// workloads such as gzip advance the clock with this.
	Compute time.Duration

	// HashPerKB is the cost of content-hashing one kibibyte (SHA-256 at
	// ~2 GB/s on one core); content-addressed blob stores charge it on
	// Put and on verified Get.
	HashPerKB time.Duration

	// NetRTT is the round-trip latency of one request to the shared
	// cache tier over the intra-cluster network — same rack or AZ, an
	// order of magnitude below the EBS volume's DiskSeek. The cache
	// client charges it in full on every blocking RPC, and divided by the
	// window's depth on a chunk lookup sent as part of a pipelined
	// window, the way Disk amortizes DiskSeek.
	NetRTT time.Duration

	// NetPerKB is the intra-cluster transfer cost per KB (the inverse
	// of the cluster link bandwidth).
	NetPerKB time.Duration
}

// DefaultCostModel returns the calibrated model used by all experiments.
func DefaultCostModel() *CostModel {
	return &CostModel{
		Syscall:        1500 * time.Nanosecond,
		ContextSwitch:  4 * time.Microsecond,
		CopyPerKB:      80 * time.Nanosecond,
		SplicePerKB:    25 * time.Nanosecond,
		PageCacheHit:   350 * time.Nanosecond,
		InodeOp:        600 * time.Nanosecond,
		DiskSeek:       120 * time.Microsecond,
		DiskPerKB:      6 * time.Microsecond, // ~160 MB/s GP2 volume
		WakeupLatency:  2 * time.Microsecond,
		LockContention: 120 * time.Nanosecond,
		XattrLookup:    5 * time.Microsecond,
		Compute:        1 * time.Microsecond,
		HashPerKB:      500 * time.Nanosecond,
		NetRTT:         10 * time.Microsecond,
		NetPerKB:       600 * time.Nanosecond, // ~1.6 GB/s cluster link
	}
}

// HashCost returns the cost of content-hashing n bytes.
func (m *CostModel) HashCost(n int) time.Duration {
	return time.Duration(int64(m.HashPerKB) * int64(n) / 1024)
}

// CopyCost returns the cost of copying n bytes between address spaces.
func (m *CostModel) CopyCost(n int) time.Duration {
	return time.Duration(int64(m.CopyPerKB) * int64(n) / 1024)
}

// SpliceCost returns the cost of splicing n bytes through a kernel pipe.
func (m *CostModel) SpliceCost(n int) time.Duration {
	return time.Duration(int64(m.SplicePerKB) * int64(n) / 1024)
}

// DiskCost returns the cost of one disk request transferring n bytes.
func (m *CostModel) DiskCost(n int) time.Duration {
	return m.DiskSeek + time.Duration(int64(m.DiskPerKB)*int64(n)/1024)
}

// NetCost returns the cost of one cache-tier RPC transferring n bytes:
// a round trip plus the payload at cluster-link bandwidth.
func (m *CostModel) NetCost(n int) time.Duration {
	return m.NetRTT + time.Duration(int64(m.NetPerKB)*int64(n)/1024)
}

// FuseRoundTrip returns the fixed cost of one FUSE request/response pair,
// excluding data copies: two kernel/user transitions in each direction.
func (m *CostModel) FuseRoundTrip() time.Duration {
	return 2*m.ContextSwitch + 2*m.WakeupLatency
}
