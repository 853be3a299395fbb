package tracestore

import "sync/atomic"

// Process-wide store counters, aggregated across every Writer and
// Reader (stores are created ad hoc by spooling controllers and not
// retained, so per-store counters would be unreachable by the time a
// metrics scrape wants them; same rationale as te.PathCacheStats).
var (
	statBlocksWritten  atomic.Uint64
	statBytesWritten   atomic.Uint64
	statBlocksVerified atomic.Uint64
	statBytesMapped    atomic.Uint64
	statOpens          atomic.Uint64
)

// CounterStats is a snapshot of the process-wide store counters.
type CounterStats struct {
	// BlocksWritten counts block writes, including tail-block rewrites.
	BlocksWritten uint64
	// BytesWritten counts bytes handed to the OS by block writes.
	BytesWritten uint64
	// BlocksVerified counts blocks whose payload checksum was validated
	// (each block verifies at most once per Reader).
	BlocksVerified uint64
	// BytesMapped counts bytes memory-mapped (or heap-loaded on
	// platforms without mmap) by Readers.
	BytesMapped uint64
	// Opens counts successfully-opened Readers.
	Opens uint64
}

// Stats returns the process-wide trace-store totals. Monotonic; safe
// for concurrent use. cmd/served exports them as figret_tracestore_*
// metrics.
func Stats() CounterStats {
	return CounterStats{
		BlocksWritten:  statBlocksWritten.Load(),
		BytesWritten:   statBytesWritten.Load(),
		BlocksVerified: statBlocksVerified.Load(),
		BytesMapped:    statBytesMapped.Load(),
		Opens:          statOpens.Load(),
	}
}
