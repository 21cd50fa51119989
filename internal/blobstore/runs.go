package blobstore

// minRun and maxRun bound the runs Runs copies into: the first is 4 KiB
// and each next one twice the last, up to 256 KiB. A run lives while
// any copy cut from it is reachable, so maxRun bounds what one copy can
// pin.
const (
	minRun = 4 << 10
	maxRun = 64 * minRun
)

// Runs copies byte slices into shared runs, so that keeping many small
// copies costs an allocation per run, not per copy. Nothing is reused: a
// run is only ever cut forward, and its bytes are freed when no copy cut
// from it is reachable. The zero Runs is ready to use; it is not safe for
// concurrent use.
type Runs struct {
	// tail is the unused tail of the run the next copies are cut from;
	// size is the size the last run was made with.
	tail []byte
	size int
}

// Copy returns a copy of data cut from the current run, making a new one
// when it cannot hold data. The copy's capacity is its length, so an
// append on it never reaches its neighbour. An empty copy is nil.
func (r *Runs) Copy(data []byte) []byte {
	n := len(data)
	if n == 0 {
		return nil
	}
	if n > len(r.tail) {
		r.size = min(max(2*r.size, minRun), maxRun)
		r.tail = make([]byte, max(r.size, n))
	}
	b := r.tail[:n:n]
	r.tail = r.tail[n:]
	copy(b, data)
	return b
}
