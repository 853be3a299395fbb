package tracestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync/atomic"
	"unsafe"

	"figret/internal/te"
	"figret/internal/traffic"
)

// hostLittleEndian reports the native byte order. On little-endian
// hosts (every first-class Go target) the stored float64 payload
// reinterprets in place; on big-endian hosts the reader decodes blocks
// into heap copies instead — correct, just not zero-copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Reader serves a store file as zero-copy snapshot views. Open maps the
// file privately (copy-on-write — a stray write through a view diverges
// only this process's pages, never the durable file) and validates the
// header and every block's structure eagerly; block payload checksums
// verify lazily, at most once each, on first access, so opening a
// bigger-than-RAM store touches only its block headers.
//
// Every accessor returns errors for corrupt, truncated or
// foreign-version content — never panics (the internal/wire hardening
// bar). The returned snapshot slices are views under the PR 3 contract
// (capacity-clipped; reading only), registered with the viewsafe
// analyzer alongside Trace.Slice.
//
// A Reader is safe for concurrent use; views stay valid until Close.
type Reader struct {
	g       geometry
	data    []byte // whole file: header page + blocks
	unmap   func() error
	nBlocks int
	nSnaps  int64
	// verified[i] is nonzero once block i's payload checksum passed.
	// Concurrent first accesses may both verify — same answer, benign.
	verified []atomic.Bool
	// decoded holds per-block heap copies on big-endian hosts (filled
	// by verify); nil slots elsewhere.
	decoded []atomic.Pointer[[]float64]
	closed  atomic.Bool
}

// Open maps the store file at path.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if fi.Size() > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("tracestore: %s is too large to map on this platform", path)
	}
	data, unmap, err := mapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("tracestore: map %s: %w", path, err)
	}
	r, err := openBytes(data)
	if err != nil {
		unmap()
		return nil, err
	}
	r.unmap = unmap
	statBytesMapped.Add(uint64(len(data)))
	statOpens.Add(1)
	return r, nil
}

// openBytes builds a reader over a complete store image. It validates
// the header and the structure (magic, header CRC, index chain, counts,
// exact size) of every block; payload checksums stay lazy.
func openBytes(data []byte) (*Reader, error) {
	if len(data) < headerBytes {
		return nil, corruptf("file holds %d bytes, header needs %d", len(data), headerBytes)
	}
	g, err := decodeHeader(data[:headerBytes])
	if err != nil {
		return nil, err
	}
	body := len(data) - headerBytes
	if body%g.blockBytes != 0 {
		return nil, corruptf("%d bytes after the header is not a whole number of %d-byte blocks", body, g.blockBytes)
	}
	r := &Reader{g: g, data: data, nBlocks: body / g.blockBytes}
	r.verified = make([]atomic.Bool, r.nBlocks)
	if !hostLittleEndian {
		r.decoded = make([]atomic.Pointer[[]float64], r.nBlocks)
	}
	for i := 0; i < r.nBlocks; i++ {
		hdr := r.block(i)[:blockHeaderBytes]
		count, _, err := decodeBlockHeader(hdr, g, int64(i)*int64(g.snapsPerBlock))
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		if i < r.nBlocks-1 && count != g.snapsPerBlock {
			return nil, corruptf("block %d holds %d snapshots but is not the tail", i, count)
		}
		if i == r.nBlocks-1 {
			r.nSnaps = int64(i)*int64(g.snapsPerBlock) + int64(count)
		}
	}
	return r, nil
}

// block returns block i's raw bytes (header + padded payload).
func (r *Reader) block(i int) []byte {
	off := int(r.g.blockOffset(i))
	return r.data[off : off+r.g.blockBytes]
}

// blockCount returns block i's snapshot count from its
// already-validated header.
func (r *Reader) blockCount(i int) int {
	return int(binary.LittleEndian.Uint32(r.block(i)[12:16]))
}

// verify checks block i's payload checksum once and — on big-endian
// hosts — decodes the payload into a heap copy.
func (r *Reader) verify(i int) error {
	if r.verified[i].Load() {
		return nil
	}
	b := r.block(i)
	count := r.blockCount(i)
	payload := b[blockHeaderBytes : blockHeaderBytes+count*r.g.pairCount*8]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[16:20]) {
		return corruptf("block %d payload checksum mismatch", i)
	}
	if r.decoded != nil {
		vals := make([]float64, count*r.g.pairCount)
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[j*8:]))
		}
		r.decoded[i].Store(&vals)
	}
	statBlocksVerified.Add(1)
	r.verified[i].Store(true)
	return nil
}

// floats returns block i's payload as float64s — a zero-copy
// reinterpretation of the mapping on little-endian hosts, the decoded
// heap copy elsewhere. verify(i) must have succeeded.
func (r *Reader) floats(i int) []float64 {
	if r.decoded != nil {
		return *r.decoded[i].Load()
	}
	count := r.blockCount(i)
	payload := r.block(i)[blockHeaderBytes:]
	// Blocks start page-aligned and the block header is 64 bytes, so the
	// payload is 8-byte-aligned and the cast is legal.
	return unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), count*r.g.pairCount)
}

// N returns the vertex count of the stored trace.
func (r *Reader) N() int { return r.g.n }

// PairCount returns the snapshot width in demand entries.
func (r *Reader) PairCount() int { return r.g.pairCount }

// Len returns the number of snapshots in the store.
func (r *Reader) Len() int64 { return r.nSnaps }

// At returns snapshot i as a capacity-clipped view into the mapping.
// The view is for reading (PR 3 contract); it stays valid until Close.
func (r *Reader) At(i int64) ([]float64, error) {
	if i < 0 || i >= r.nSnaps {
		return nil, fmt.Errorf("tracestore: snapshot %d out of range [0,%d)", i, r.nSnaps)
	}
	b := int(i / int64(r.g.snapsPerBlock))
	j := int(i % int64(r.g.snapsPerBlock))
	if err := r.verify(b); err != nil {
		return nil, err
	}
	pc := r.g.pairCount
	f := r.floats(b)
	return f[j*pc : (j+1)*pc : (j+1)*pc], nil
}

// Trace materializes the whole store as a traffic.Trace of zero-copy
// snapshot views, verifying every block's checksum on the way. The trace
// shares the mapping: it is valid until Close, and its snapshots follow
// the view contract (read, don't mutate; mutations are process-private
// copy-on-write either way).
func (r *Reader) Trace() (*traffic.Trace, error) {
	snaps := make([][]float64, r.nSnaps)
	pc := r.g.pairCount
	idx := 0
	for b := 0; b < r.nBlocks; b++ {
		if err := r.verify(b); err != nil {
			return nil, err
		}
		f := r.floats(b)
		count := r.blockCount(b)
		for j := 0; j < count; j++ {
			snaps[idx] = f[j*pc : (j+1)*pc : (j+1)*pc]
			idx++
		}
	}
	return &traffic.Trace{Pairs: te.NewPairs(r.g.n), Snapshots: snaps}, nil
}

// Close unmaps the file. Views handed out before Close become invalid;
// accessing them afterwards faults. Safe to call more than once.
func (r *Reader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	if r.unmap != nil {
		return r.unmap()
	}
	return nil
}
