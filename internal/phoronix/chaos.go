package phoronix

import (
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/vfs"
)

// ChaosProfile is the default fault/latency-injection rule set for the
// -chaos harness profile: periodic extra latency on the data path and a
// smaller tax across every operation, modelling a degraded backing store
// (an EBS volume having a bad day). Errors are deliberately absent from
// the default profile — the suite's workloads treat any errno as fatal,
// so the measurable axis under chaos is latency degradation.
func ChaosProfile() []vfs.FaultRule {
	return []vfs.FaultRule{
		{Kind: vfs.KindRead, Delay: 200 * time.Microsecond, EveryN: 7},
		{Kind: vfs.KindWrite, Delay: 200 * time.Microsecond, EveryN: 5},
		{Kind: vfs.KindAny, Delay: 50 * time.Microsecond, EveryN: 13},
	}
}

// ChaosErrnoProfile is ChaosProfile plus occasional injected errnos on
// the data path — the composition workload for running chaos under an
// enforced policy: the injected errors must surface in the collector's
// errno histograms (and, usually, abort the benchmark that drew them)
// without ever registering as policy denials or new profile rules.
func ChaosErrnoProfile() []vfs.FaultRule {
	return append(ChaosProfile(),
		vfs.FaultRule{Kind: vfs.KindRead, Errno: vfs.EIO, EveryN: 701},
		vfs.FaultRule{Kind: vfs.KindWrite, Errno: vfs.ENOSPC, EveryN: 887},
	)
}

// ChaosBlobProfile is the default rule set for backend-store chaos
// (Setup.StoreFaults): the host filesystem's blob store occasionally
// loses a chunk or hands back corrupted bytes. Unlike syscall-entry
// fault injection, these faults originate *below* the filesystem — memfs
// must translate them into EIO on the read path for the workload to see
// anything at all.
func ChaosBlobProfile() []blobstore.FaultRule {
	return []blobstore.FaultRule{
		{Op: blobstore.FaultGet, Err: blobstore.ErrCorrupt, EveryN: 997},
		{Op: blobstore.FaultGet, Err: blobstore.ErrNotFound, EveryN: 1499},
	}
}
