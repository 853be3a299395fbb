// Package tracestore is the on-disk columnar trace store: a versioned,
// CRC-32-checksummed binary format for demand traces that a streaming
// Writer appends to durably and a Reader memory-maps back as zero-copy
// traffic.Trace views. It is the engineering pattern of te.PathStore
// applied to trace data, built so traces no longer have to fit in RAM:
// the serving daemon spools its ingest history through a Writer, the
// scenario runner's substrate cache mmaps calibrated traces instead of
// regenerating them, and training and evaluation read month-scale
// traces through window views that never materialize the whole series.
//
// # File layout
//
// A store file is one page-aligned header followed by fixed-size,
// page-aligned snapshot blocks (DESIGN.md §14):
//
//	page 0      header: magic "FIGTRCS1", version, n, pairCount,
//	            snapsPerBlock, header CRC-32; zero padding to 4 KiB
//	page 1..    block 0, block 1, ... each blockBytes long
//
// Each block is a 64-byte block header (magic, first snapshot index,
// snapshot count, payload CRC-32) followed by the payload: count
// snapshots of pairCount little-endian IEEE-754 float64s each, zero
// padding to the fixed block size. Thinking of the trace as the
// pairs × time demand matrix, the payload is stored column-major — each
// snapshot (one column) is contiguous — which is exactly what makes the
// sliding windows behind online decisions zero-copy: a mapped block's
// bytes reinterpret directly as the []float64 snapshot vectors of a
// traffic.Trace, and every float lands 8-byte-aligned because blocks
// are page-aligned and the block header is 64 bytes.
//
// Only the tail block may hold fewer than snapsPerBlock snapshots. The
// header is written once at create time and never updated — the
// snapshot count is derived from the file size and the tail block's
// header — so a crash can tear at most the tail block, which its CRC
// detects and OpenAppend truncates away (crash recovery loses at most
// the snapshots of one unflushed block, never the prefix).
//
// # Ownership and the view contract
//
// Reader.Trace and Reader.At return views over the mapping, extending
// the PR 3 capacity-clipped view contract (enforced by the viewsafe
// analyzer): views are for reading, owners mutate. The mapping is
// private (copy-on-write), so a stray write through a view can never
// corrupt the durable file — it only diverges that process's copy.
//
// Corrupt, truncated or foreign-version input — on open or in any
// block — surfaces as an error, never a panic: the same hardening bar
// as internal/wire's frame decoders.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// magic identifies a trace store file; the trailing digit is the
	// major layout generation (bumped only with the version field).
	magic = "FIGTRCS1"
	// version is the format version; readers reject anything else.
	version = 1
	// pageSize is the alignment unit of the header and every block.
	// 4 KiB matches every platform Go targets; larger hardware pages
	// still align, since they are multiples of it.
	pageSize = 4096
	// headerBytes is the reserved on-disk size of the file header.
	headerBytes = pageSize
	// blockHeaderBytes is the fixed per-block header size. 64 keeps the
	// payload 8-byte-aligned (blocks start on page boundaries) with room
	// for the fields below.
	blockHeaderBytes = 64
	// defaultBlockPayload targets ~1 MiB of payload per block when the
	// caller does not pin snapsPerBlock: big enough to amortize the
	// header and CRC, small enough that a partial tail rewrite is cheap.
	defaultBlockPayload = 1 << 20
	// maxSnapsPerBlock bounds the block geometry a reader will accept,
	// so a hostile header cannot make size arithmetic overflow.
	maxSnapsPerBlock = 1 << 20
	// maxVertices bounds n on read; pairCount = n·(n−1) stays far from
	// overflow and rejects absurd headers before any allocation.
	maxVertices = 1 << 16
)

// ErrCorrupt wraps every integrity failure (bad magic, checksum
// mismatch, impossible geometry, torn block). errors.Is(err, ErrCorrupt)
// distinguishes damage from I/O faults.
var ErrCorrupt = errors.New("tracestore: corrupt store")

// ErrVersion marks a structurally-valid file of a foreign format
// version: not damage, but not readable either.
var ErrVersion = errors.New("tracestore: unsupported format version")

// corruptf builds an ErrCorrupt with a located reason.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// geometry is the fixed shape of one store file, derived from its
// header.
type geometry struct {
	n             int // vertices
	pairCount     int // n·(n−1), snapshot width in float64s
	snapsPerBlock int // snapshots per full block
	blockBytes    int // fixed on-disk size of every block (page-aligned)
}

// newGeometry validates and completes a shape.
func newGeometry(n, snapsPerBlock int) (geometry, error) {
	if n < 2 || n > maxVertices {
		return geometry{}, fmt.Errorf("tracestore: invalid vertex count %d", n)
	}
	pairCount := n * (n - 1)
	if snapsPerBlock <= 0 {
		snapsPerBlock = defaultBlockPayload / (pairCount * 8)
		if snapsPerBlock < 1 {
			snapsPerBlock = 1
		}
	}
	if snapsPerBlock > maxSnapsPerBlock {
		return geometry{}, fmt.Errorf("tracestore: snapsPerBlock %d exceeds limit %d", snapsPerBlock, maxSnapsPerBlock)
	}
	payload := blockHeaderBytes + snapsPerBlock*pairCount*8
	blockBytes := (payload + pageSize - 1) / pageSize * pageSize
	return geometry{n: n, pairCount: pairCount, snapsPerBlock: snapsPerBlock, blockBytes: blockBytes}, nil
}

// blockOffset returns block i's byte offset in the file.
func (g geometry) blockOffset(i int) int64 {
	return int64(headerBytes) + int64(i)*int64(g.blockBytes)
}

// File header layout (within the first headerBytes):
//
//	[0:8)   magic
//	[8:12)  version          u32 LE
//	[12:16) n                u32 LE
//	[16:20) pairCount        u32 LE (redundant; cross-checked)
//	[20:24) snapsPerBlock    u32 LE
//	[24:28) reserved (zero)
//	[28:32) CRC-32/IEEE over [0:28)
//	[32:headerBytes) zero padding
const headerUsed = 32

// encodeHeader renders the header page.
func encodeHeader(g geometry) []byte {
	buf := make([]byte, headerBytes)
	copy(buf, magic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], version)
	le.PutUint32(buf[12:], uint32(g.n))
	le.PutUint32(buf[16:], uint32(g.pairCount))
	le.PutUint32(buf[20:], uint32(g.snapsPerBlock))
	le.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[:28]))
	return buf
}

// decodeHeader validates a header page and returns the file geometry.
func decodeHeader(buf []byte) (geometry, error) {
	if len(buf) < headerUsed {
		return geometry{}, corruptf("header truncated at %d bytes", len(buf))
	}
	if string(buf[:8]) != magic {
		return geometry{}, corruptf("bad magic %q", buf[:8])
	}
	le := binary.LittleEndian
	if crc32.ChecksumIEEE(buf[:28]) != le.Uint32(buf[28:32]) {
		return geometry{}, corruptf("header checksum mismatch")
	}
	if v := le.Uint32(buf[8:12]); v != version {
		return geometry{}, fmt.Errorf("%w: file version %d, reader speaks %d", ErrVersion, v, version)
	}
	n := int(le.Uint32(buf[12:16]))
	snaps := int(le.Uint32(buf[20:24]))
	if snaps <= 0 {
		return geometry{}, corruptf("snapsPerBlock %d", snaps)
	}
	g, err := newGeometry(n, snaps)
	if err != nil {
		return geometry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if pc := int(le.Uint32(buf[16:20])); pc != g.pairCount {
		return geometry{}, corruptf("pairCount %d, want %d for n=%d", pc, g.pairCount, n)
	}
	return g, nil
}

// Block header layout (within the first blockHeaderBytes of a block):
//
//	[0:4)   block magic "FTBK"
//	[4:12)  first snapshot index   u64 LE
//	[12:16) snapshot count         u32 LE (1..snapsPerBlock)
//	[16:20) CRC-32/IEEE over the count·pairCount·8 payload bytes
//	[20:24) CRC-32/IEEE over [0:20)
//	[24:blockHeaderBytes) zero padding
const blockMagic = "FTBK"

// encodeBlockHeader renders a block header into dst (blockHeaderBytes
// long) for a block holding count snapshots starting at snapshot first,
// whose payload checksum is payloadCRC.
func encodeBlockHeader(dst []byte, first int64, count int, payloadCRC uint32) {
	for i := range dst[:blockHeaderBytes] {
		dst[i] = 0
	}
	copy(dst, blockMagic)
	le := binary.LittleEndian
	le.PutUint64(dst[4:], uint64(first))
	le.PutUint32(dst[12:], uint32(count))
	le.PutUint32(dst[16:], payloadCRC)
	le.PutUint32(dst[20:], crc32.ChecksumIEEE(dst[:20]))
}

// decodeBlockHeader validates a block header against the geometry and
// the expected first-snapshot index, returning the snapshot count and
// payload CRC. It checks only the header; payload verification is the
// caller's (lazy) job.
func decodeBlockHeader(buf []byte, g geometry, wantFirst int64) (count int, payloadCRC uint32, err error) {
	if len(buf) < blockHeaderBytes {
		return 0, 0, corruptf("block header truncated at %d bytes", len(buf))
	}
	le := binary.LittleEndian
	if crc32.ChecksumIEEE(buf[:20]) != le.Uint32(buf[20:24]) {
		return 0, 0, corruptf("block header checksum mismatch")
	}
	if string(buf[:4]) != blockMagic {
		return 0, 0, corruptf("bad block magic %q", buf[:4])
	}
	if first := int64(le.Uint64(buf[4:12])); first != wantFirst {
		return 0, 0, corruptf("block claims first snapshot %d, want %d", first, wantFirst)
	}
	count = int(le.Uint32(buf[12:16]))
	if count < 1 || count > g.snapsPerBlock {
		return 0, 0, corruptf("block holds %d snapshots, geometry allows 1..%d", count, g.snapsPerBlock)
	}
	return count, le.Uint32(buf[16:20]), nil
}
