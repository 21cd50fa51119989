package fuse

import (
	"encoding/binary"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// FuzzDispatch: a request frame is a trust boundary, so whatever its bytes
// the server answers without panicking. Every reply decodes and echoes the
// frame's unique; only a one-way opcode gets none. A frame shorter than the
// header, or whose length field is not its size, is answered EINVAL and
// reaches no filesystem call. The seeds are requestCorpus, one frame per
// opcode a Conn sends with a body; what the fuzzer found is kept as rows of
// TestDispatchFindings.
//
//	go test -run '^$' -fuzz FuzzDispatch -fuzztime 15s ./internal/fuse
func FuzzDispatch(f *testing.F) {
	for _, frame := range requestCorpus(f) {
		f.Add(frame)
	}
	f.Fuzz(checkDispatch)
}

// checkDispatch is FuzzDispatch's property for one input: the frame is
// dispatched by hand on a fresh server over memfs, with the recycling
// guard rail on.
func checkDispatch(t *testing.T, frame []byte) {
	was := poisonReleased.Swap(true)
	defer poisonReleased.Store(was)
	opts := PaperMountOptions() // a NoFlush server would answer FLUSH itself
	opts.ServerThreads = 0      // dispatch by hand
	calls := &callCounter{}
	fs := vfs.Chain(memfs.New(memfs.Options{}), calls)
	srv := newServer(fs, sim.NewClock(), sim.DefaultCostModel(), opts, newReqTable(16))
	wk := &worker{s: srv}
	reply, _ := wk.dispatch(frame, nil)

	malformed := len(frame) < reqHeaderLen || binary.LittleEndian.Uint32(frame) != uint32(len(frame))
	var unique uint64
	var opcode Opcode
	if len(frame) >= reqHeaderLen {
		unique = binary.LittleEndian.Uint64(frame[8:])
		opcode = Opcode(binary.LittleEndian.Uint32(frame[4:]))
	}
	if reply == nil {
		if malformed || (opcode != OpForget && opcode != OpBatchForget && opcode != OpInterrupt) {
			t.Fatalf("%v frame of %d bytes (malformed header: %v): no reply", opcode, len(frame), malformed)
		}
		return
	}
	got, errno, _, err := decodeReply(reply)
	if err != nil {
		t.Fatalf("%v frame of %d bytes: reply of %d bytes does not decode: %v", opcode, len(frame), len(reply), err)
	}
	if got != unique {
		t.Fatalf("%v frame of %d bytes: reply echoes unique %#x, want %#x", opcode, len(frame), got, unique)
	}
	if malformed {
		if errno != vfs.EINVAL {
			t.Fatalf("malformed header (%d bytes, length field %d): errno %v, want EINVAL", len(frame), lengthField(frame), errno)
		}
		if n := calls.n.Load(); n != 0 {
			t.Fatalf("malformed header (%d bytes, length field %d): %d filesystem calls, want none", len(frame), lengthField(frame), n)
		}
	}
}

// lengthField is the frame's length field, or -1 when it is cut off.
func lengthField(frame []byte) int64 {
	if len(frame) < 4 {
		return -1
	}
	return int64(binary.LittleEndian.Uint32(frame))
}

// TestDispatchFindings replays inputs FuzzDispatch must keep handling: the
// header's edge cases, then what the fuzzer has failed on, minimised.
func TestDispatchFindings(t *testing.T) {
	// frame is a request with no groups whose length field is its size
	// plus skew.
	frame := func(opcode Opcode, skew int, body ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(reqHeaderLen+4+len(body)+skew))
		b = binary.LittleEndian.AppendUint32(b, uint32(opcode))
		b = binary.LittleEndian.AppendUint64(b, 0x1234) // unique
		b = binary.LittleEndian.AppendUint64(b, 1)      // nodeid
		b = append(b, make([]byte, 16)...)              // uid, gid, pid, padding
		b = binary.LittleEndian.AppendUint32(b, 0)      // group count
		return append(b, body...)
	}
	groups := frame(OpGetattr, 0)
	binary.LittleEndian.PutUint32(groups[reqHeaderLen:], 1<<30)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"one byte short of a header", frame(OpGetattr, 0)[:reqHeaderLen-1]},
		{"header without its group count", frame(OpGetattr, -4)[:reqHeaderLen]},
		{"length field past the frame", frame(OpGetattr, 1)},
		{"length field short of the frame", frame(OpGetattr, -1)},
		{"group count past the frame", groups},
		{"FORGET without its count", frame(OpForget, 0)},
		{"BATCH_FORGET counting more than follows", frame(OpBatchForget, 0, 0xff, 0xff, 0xff, 0xff)},
		{"unknown opcode", frame(9999, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkDispatch(t, tc.frame) })
	}
}
