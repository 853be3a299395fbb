// Package tracestore is the on-disk trace store: a versioned,
// CRC-32-checksummed binary log of demand snapshots that a streaming
// Writer appends to durably and a Reader reads back. The serving daemon
// spools its ingest history through a Writer (served -spool), and a
// restarted daemon gets its newest window back from OpenAppend.
//
// # File layout
//
// A store file is a 24-byte header followed by one fixed-size record per
// snapshot (DESIGN.md §14):
//
//	header     magic "FIGTRCS2", version, n, pairCount, CRC-32
//	record 0   pairCount little-endian float64s, CRC-32
//	record 1   ...
//
// Thinking of the trace as the pairs × time demand matrix, the records
// store it column-major: each snapshot (one column) is one contiguous
// byte range. A record's CRC covers its index and its payload, so a
// record read at the wrong offset, or a zero-filled tail, does not
// validate. The snapshot count is the size after the header divided by
// the record size; there is no padding and no other framing.
//
// The header is written once at create time and never updated, and a
// writer only ever appends whole records after the last one, so a crash
// can tear at most the records of the flush in progress, which their
// CRCs detect and OpenAppend truncates away.
//
// Corrupt, truncated or foreign-version input — on open, in any record,
// or in a file that shrinks after Open — surfaces as an error, never a
// panic: the same hardening bar as internal/wire's frame decoders.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// magic identifies a trace store file; the trailing digit is the
	// major layout generation (bumped only with the version field).
	magic = "FIGTRCS2"
	// version is the format version; readers reject anything else.
	version = 2
	// headerBytes is the on-disk size of the file header:
	//
	//	[0:8)   magic
	//	[8:12)  version    u32 LE
	//	[12:16) n          u32 LE
	//	[16:20) pairCount  u32 LE (redundant; cross-checked)
	//	[20:24) CRC-32/IEEE over [0:20)
	headerBytes = 24
	// crcBytes is the checksum that ends every record.
	crcBytes = 4
	// flushBytes is how much a Writer buffers before Append flushes by
	// itself: big enough that a bulk write makes few system calls.
	flushBytes = 1 << 20
	// maxVertices bounds n on read; pairCount = n·(n−1) stays far from
	// overflow and rejects absurd headers before any allocation.
	maxVertices = 1 << 16
)

// ErrCorrupt wraps every integrity failure (bad magic, checksum
// mismatch, impossible shape, torn record). errors.Is(err, ErrCorrupt)
// distinguishes damage from I/O faults.
var ErrCorrupt = errors.New("tracestore: corrupt store")

// ErrVersion marks a file of a foreign format version: not damage, but
// not readable either.
var ErrVersion = errors.New("tracestore: unsupported format version")

// corruptf builds an ErrCorrupt with a located reason.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// shape is what a store's header fixes: the vertex count and the
// snapshot width.
type shape struct {
	n         int // vertices
	pairCount int // n·(n−1), snapshot width in float64s
}

// newShape validates a vertex count.
func newShape(n int) (shape, error) {
	if n < 2 || n > maxVertices {
		return shape{}, fmt.Errorf("tracestore: invalid vertex count %d", n)
	}
	return shape{n: n, pairCount: n * (n - 1)}, nil
}

// recordBytes is the on-disk size of one snapshot record.
func (s shape) recordBytes() int { return s.pairCount*8 + crcBytes }

// offset returns record i's byte offset in the file.
func (s shape) offset(i int64) int64 {
	return headerBytes + i*int64(s.recordBytes())
}

// encodeHeader renders the file header.
func encodeHeader(s shape) []byte {
	buf := make([]byte, headerBytes)
	copy(buf, magic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], version)
	le.PutUint32(buf[12:], uint32(s.n))
	le.PutUint32(buf[16:], uint32(s.pairCount))
	le.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return buf
}

// readHeader reads and validates src's file header and returns the
// store's shape. The generation digit and the version are checked before
// the CRC, because the CRC sits elsewhere in another version's header: a
// file of another version is ErrVersion, not ErrCorrupt.
func readHeader(src io.ReaderAt) (shape, error) {
	buf := make([]byte, headerBytes)
	if err := readAt(src, buf, 0); err != nil {
		return shape{}, err
	}
	if string(buf[:7]) != magic[:7] {
		return shape{}, corruptf("bad magic %q", buf[:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(buf[8:12]); buf[7] != magic[7] || v != version {
		return shape{}, fmt.Errorf("%w: file %q version %d, reader speaks %q version %d", ErrVersion, buf[:8], v, magic, version)
	}
	if crc32.ChecksumIEEE(buf[:20]) != le.Uint32(buf[20:24]) {
		return shape{}, corruptf("header checksum mismatch")
	}
	n := int(le.Uint32(buf[12:16]))
	s, err := newShape(n)
	if err != nil {
		return shape{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if pc := int(le.Uint32(buf[16:20])); pc != s.pairCount {
		return shape{}, corruptf("pairCount %d, want %d for n=%d", pc, s.pairCount, n)
	}
	return s, nil
}

// recordCRC is the checksum of record i with payload p: CRC-32/IEEE
// over i as a little-endian u64 followed by p.
func recordCRC(i int64, p []byte) uint32 {
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(i))
	return crc32.Update(crc32.ChecksumIEEE(idx[:]), crc32.IEEETable, p)
}

// appendRecord encodes snapshot d as record i onto dst.
func appendRecord(dst []byte, i int64, d []float64) []byte {
	start := len(dst)
	for _, v := range d {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(dst, recordCRC(i, dst[start:]))
}

// checkRecord validates rec, one record's bytes, as record i.
func checkRecord(rec []byte, i int64) error {
	p := len(rec) - crcBytes
	if recordCRC(i, rec[:p]) != binary.LittleEndian.Uint32(rec[p:]) {
		return corruptf("snapshot %d checksum mismatch", i)
	}
	return nil
}

// decodeRecord returns a checked record's snapshot as a new slice.
func decodeRecord(rec []byte) []float64 {
	s := make([]float64, (len(rec)-crcBytes)/8)
	for k := range s {
		s[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*k:]))
	}
	return s
}

// readAt fills buf from src at offset off. A short read is ErrCorrupt:
// the file ends before its layout says it does.
func readAt(src io.ReaderAt, buf []byte, off int64) error {
	n, err := src.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptf("file ends %d bytes into a %d-byte read at offset %d", n, len(buf), off)
	}
	return fmt.Errorf("tracestore: read at offset %d: %w", off, err)
}
