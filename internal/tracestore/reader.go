package tracestore

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Reader reads snapshots back out of a store file. Open validates the
// header and that the rest of the file is whole records; At reads one
// record and checks its CRC on every call, so opening a store reads
// only its header.
//
// Every method returns an error for corrupt, truncated or
// foreign-version content, including a file that shrinks after Open —
// never a panic (the internal/wire hardening bar). A Reader is safe for
// concurrent use.
type Reader struct {
	src    io.ReaderAt
	file   *os.File // the file Open opened; nil over an in-memory image
	s      shape
	nSnaps int64
	closed atomic.Bool
	// Records At has checked; atomic, as concurrent At calls share them.
	recordsVerified, bytesRead atomic.Uint64
}

// Open opens the store file at path.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	r, err := newReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.file = f
	return r, nil
}

// newReader builds a reader over a store image of size bytes behind src.
// It validates the header and that the body is a whole number of
// records; record checksums wait for At.
func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < headerBytes {
		return nil, corruptf("file holds %d bytes, header needs %d", size, headerBytes)
	}
	s, err := readHeader(src)
	if err != nil {
		return nil, err
	}
	body, rec := size-headerBytes, int64(s.recordBytes())
	if body%rec != 0 {
		return nil, corruptf("%d bytes after the header is not a whole number of %d-byte records", body, rec)
	}
	return &Reader{src: src, s: s, nSnaps: body / rec}, nil
}

// Stats returns the records the Reader has checked, each At counted.
func (r *Reader) Stats() CounterStats {
	return CounterStats{BlocksVerified: r.recordsVerified.Load(), BytesRead: r.bytesRead.Load()}
}

// CounterStats is one handle's I/O: a Writer's writes and recovery reads,
// or a Reader's checked records. A block is one snapshot record. The
// package keeps no counter of its own.
type CounterStats struct {
	BlocksWritten  uint64 // records landed in the file
	BytesWritten   uint64 // header and record bytes handed to the OS
	BlocksVerified uint64 // records whose CRC was checked
	BytesRead      uint64 // the record bytes behind BlocksVerified
}

// N returns the vertex count of the stored trace.
func (r *Reader) N() int { return r.s.n }

// Len returns the number of snapshots in the store.
func (r *Reader) Len() int64 { return r.nSnaps }

// At returns snapshot i as a new slice the caller owns.
func (r *Reader) At(i int64) ([]float64, error) {
	if i < 0 || i >= r.nSnaps {
		return nil, fmt.Errorf("tracestore: snapshot %d out of range [0,%d)", i, r.nSnaps)
	}
	rec := make([]byte, r.s.recordBytes())
	if err := readAt(r.src, rec, r.s.offset(i)); err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", i, err)
	}
	if err := checkRecord(rec, i); err != nil {
		return nil, err
	}
	r.recordsVerified.Add(1)
	r.bytesRead.Add(uint64(len(rec)))
	return decodeRecord(rec), nil
}

// Close closes the file. Safe to call more than once.
func (r *Reader) Close() error {
	if r.closed.Swap(true) || r.file == nil {
		return nil
	}
	return r.file.Close()
}
