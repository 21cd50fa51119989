package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"cntr/internal/vfs"
)

// The op-stream fingerprint pins what each workload sends into the top
// of both stacks: the count by vfs.OpKind, the bytes read and written,
// the ops that returned an error (some do by design: AIO-Stress's
// refused O_DIRECT open, the ENOENT lookup before every create) and
// each row's work units. Every run recomputes it and fails on a
// mismatch, so a change to internal/phoronix's generators — or a "gain"
// that comes from doing less work — cannot pass silently.
//
// The committed file was taken at fingerprintSeed. The bench-owned
// seeded rows are compared in full only at that seed; at any other
// seed they are compared on what no seed changes, the op counts (see
// sideFP.loose). The internal/phoronix rows are compared in full always.

//go:embed fingerprint.json
var fingerprintJSON []byte

const fingerprintFile = "fingerprint.json" // relative to bench/, where `go run -C bench .` runs

type sideFP struct {
	Ops          map[string]int64 `json:"ops"`
	BytesRead    int64            `json:"bytes_read"`
	BytesWritten int64            `json:"bytes_written"`
	Errors       int64            `json:"errors"`
}

type rowFP struct {
	Name   string `json:"name"`
	Seeded bool   `json:"seeded,omitempty"`
	Work   int64  `json:"work"`
	Native sideFP `json:"native"`
	Cntr   sideFP `json:"cntr"`
}

// fingerprints maps workload name to its rows, in run order.
type fingerprints map[string][]rowFP

func loadFingerprints() (fingerprints, error) {
	var f fingerprints
	if err := json.Unmarshal(fingerprintJSON, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", fingerprintFile, err)
	}
	return f, nil
}

func sideFingerprint(s *opStream) sideFP {
	fp := sideFP{Ops: map[string]int64{}, BytesRead: s.bytesRead, BytesWritten: s.bytesWritten, Errors: s.errors}
	for k, n := range s.ops {
		if n != 0 {
			fp.Ops[vfs.OpKind(k).String()] = n
		}
	}
	return fp
}

func roundFingerprint(r *roundResult) []rowFP {
	out := make([]rowFP, len(r.rows))
	for i := range r.rows {
		row := &r.rows[i]
		out[i] = rowFP{Name: row.name, Seeded: row.seeded, Work: row.cntr.work,
			Native: sideFingerprint(&row.native.stream), Cntr: sideFingerprint(&row.cntr.stream)}
	}
	return out
}

// loose reduces a side to what holds at every seed: a seeded row fixes
// how many ops of each kind it issues and how many fail, but not the
// sizes of its reads and writes.
func (s sideFP) loose() sideFP {
	return sideFP{Ops: s.Ops, Errors: s.Errors}
}

func (s sideFP) diff(want sideFP) string {
	kinds := map[string]bool{}
	for k := range s.Ops {
		kinds[k] = true
	}
	for k := range want.Ops {
		kinds[k] = true
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if s.Ops[k] != want.Ops[k] {
			return fmt.Sprintf("%d %s ops, fingerprint has %d", s.Ops[k], k, want.Ops[k])
		}
	}
	switch {
	case s.BytesRead != want.BytesRead:
		return fmt.Sprintf("%d bytes read, fingerprint has %d", s.BytesRead, want.BytesRead)
	case s.BytesWritten != want.BytesWritten:
		return fmt.Sprintf("%d bytes written, fingerprint has %d", s.BytesWritten, want.BytesWritten)
	case s.Errors != want.Errors:
		return fmt.Sprintf("%d ops returned an error, fingerprint has %d", s.Errors, want.Errors)
	}
	return ""
}

// checkFingerprint compares one round's op stream with the committed
// one and names the first row and quantity that differ. cntrOnly rounds
// have no native side to compare.
func checkFingerprint(want []rowFP, got []rowFP, seed uint64, cntrOnly bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows ran, fingerprint has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.Seeded != w.Seeded {
			return fmt.Errorf("row %d is %q (seeded=%v), fingerprint has %q (seeded=%v)", i, g.Name, g.Seeded, w.Name, w.Seeded)
		}
		if g.Seeded && seed != fingerprintSeed {
			g.Native, g.Cntr, w.Native, w.Cntr = g.Native.loose(), g.Cntr.loose(), w.Native.loose(), w.Cntr.loose()
			g.Work = w.Work
		}
		if g.Work != w.Work {
			return fmt.Errorf("row %q: %d work units, fingerprint has %d", g.Name, g.Work, w.Work)
		}
		if !cntrOnly {
			if d := g.Native.diff(w.Native); d != "" {
				return fmt.Errorf("row %q, native side: %s", g.Name, d)
			}
		}
		if d := g.Cntr.diff(w.Cntr); d != "" {
			return fmt.Errorf("row %q, CNTR side: %s", g.Name, d)
		}
	}
	return nil
}

// writeFingerprints runs one round of every workload at fingerprintSeed
// and rewrites the committed file: the step for a change that alters a
// generator on purpose.
func writeFingerprints() error {
	out := fingerprints{}
	for i := range workloads {
		w := &workloads[i]
		r, err := w.round(fingerprintSeed, roundOpts{})
		if err != nil {
			return err
		}
		for _, row := range r.rows {
			if row.failure != "" {
				return fmt.Errorf("workload %s, row %q: %s", w.name, row.name, row.failure)
			}
		}
		out[w.name] = roundFingerprint(r)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(fingerprintFile, append(data, '\n'), 0o644)
}
