package vfs

import "time"

// StartBatchSinkSized is StartBatchSink with the three sizes exposed,
// so tests can force size kicks, interval flushes and a full buffer
// with a handful of operations.
func (t *Tracer) StartBatchSinkSized(sink func([]TraceEntry), flushSize, capacity int, interval time.Duration) (stop func()) {
	return t.startBatchSink(sink, flushSize, capacity, interval)
}
