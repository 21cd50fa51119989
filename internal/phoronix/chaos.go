package phoronix

import (
	"time"

	"cntr/internal/vfs"
)

// ChaosProfile is the fault/latency-injection rule set of the
// chaos/latency mode: periodic extra latency on the data path and a
// smaller tax across every operation, modelling a degraded backing store
// (an EBS volume having a bad day). It injects no errno, so every row
// completes and the measurable axis under chaos is latency degradation.
// An errno would not act alike across rows: most abort on the first, but
// four rows drop ReadAt's error (Dbench, Apachebench, Compilebench:
// Compile and Compilebench: Read), and readAll, the warm-ups' reader,
// stops at any read error and returns nil, so those rows finish past an
// injected EIO (rows.golden's enforce+chaos Dbench lines count 6 to 876
// of them).
func ChaosProfile() []vfs.FaultRule {
	return []vfs.FaultRule{
		{Kind: vfs.KindRead, Delay: 200 * time.Microsecond, EveryN: 7},
		{Kind: vfs.KindWrite, Delay: 200 * time.Microsecond, EveryN: 5},
		{Kind: vfs.KindAny, Delay: 50 * time.Microsecond, EveryN: 13},
	}
}
