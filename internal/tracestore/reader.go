package tracestore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
)

// Reader reads snapshots back out of a store file. Open validates the
// header and every block header; a block's payload is read, checked
// against its CRC and decoded on its first access, once, so opening a
// store reads only its headers.
//
// Every method returns an error for corrupt, truncated or
// foreign-version content, including a file that shrinks after Open —
// never a panic (the internal/wire hardening bar). A Reader is safe for
// concurrent use.
type Reader struct {
	src    io.ReaderAt
	file   *os.File // the file Open opened; nil over an in-memory image
	g      geometry
	nSnaps int64
	// blocks[i] holds block i's decoded payload once it has been read and
	// checked. Concurrent first accesses may both read it — same bits,
	// benign.
	blocks []atomic.Pointer[[]float64]
	closed atomic.Bool
	// First reads of blocks; atomic, as concurrent At calls share them.
	blocksVerified, bytesRead atomic.Uint64
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
// It validates the header and the structure (magic, header CRC, index
// chain, counts, exact size) of every block; payload checksums wait for
// At.
func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < headerBytes {
		return nil, corruptf("file holds %d bytes, header needs %d", size, headerBytes)
	}
	buf := make([]byte, blockHeaderBytes)
	if err := readAt(src, buf[:headerUsed], 0); err != nil {
		return nil, err
	}
	g, err := decodeHeader(buf[:headerUsed])
	if err != nil {
		return nil, err
	}
	body := size - headerBytes
	if body%int64(g.blockBytes) != 0 {
		return nil, corruptf("%d bytes after the header is not a whole number of %d-byte blocks", body, g.blockBytes)
	}
	nBlocks := int(body / int64(g.blockBytes))
	r := &Reader{src: src, g: g, blocks: make([]atomic.Pointer[[]float64], nBlocks)}
	for i := 0; i < nBlocks; i++ {
		if err := readAt(src, buf, g.blockOffset(i)); err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		count, _, err := decodeBlockHeader(buf, g, int64(i)*int64(g.snapsPerBlock))
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		if i < nBlocks-1 && count != g.snapsPerBlock {
			return nil, corruptf("block %d holds %d snapshots but is not the tail", i, count)
		}
		r.nSnaps = int64(i)*int64(g.snapsPerBlock) + int64(count)
	}
	return r, nil
}

// block returns block i's decoded payload, reading and checking it on
// first use.
func (r *Reader) block(i int) ([]float64, error) {
	if f := r.blocks[i].Load(); f != nil {
		return *f, nil
	}
	buf := make([]byte, r.g.blockBytes)
	_, payload, err := readBlock(r.src, r.g, i, buf)
	if err != nil {
		return nil, err
	}
	f := make([]float64, len(payload)/8)
	for k := range f {
		f[k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*k:]))
	}
	r.blocksVerified.Add(1)
	r.bytesRead.Add(uint64(len(buf)))
	r.blocks[i].Store(&f)
	return f, nil
}

// Stats returns the blocks the Reader has checked, each counted once.
func (r *Reader) Stats() CounterStats {
	return CounterStats{BlocksVerified: r.blocksVerified.Load(), BytesRead: r.bytesRead.Load()}
}

// CounterStats is one handle's I/O: a Writer's writes and recovery reads,
// or a Reader's checked blocks. The package keeps no counter of its own.
type CounterStats struct {
	BlocksWritten  uint64 // block writes, tail rewrites included
	BytesWritten   uint64 // header and block bytes handed to the OS
	BlocksVerified uint64 // blocks whose payload CRC was checked
	BytesRead      uint64 // the block bytes behind BlocksVerified
}

// N returns the vertex count of the stored trace.
func (r *Reader) N() int { return r.g.n }

// Len returns the number of snapshots in the store.
func (r *Reader) Len() int64 { return r.nSnaps }

// At returns snapshot i as a new slice the caller owns.
func (r *Reader) At(i int64) ([]float64, error) {
	if i < 0 || i >= r.nSnaps {
		return nil, fmt.Errorf("tracestore: snapshot %d out of range [0,%d)", i, r.nSnaps)
	}
	b := int(i / int64(r.g.snapsPerBlock))
	f, err := r.block(b)
	if err != nil {
		return nil, err
	}
	pc := r.g.pairCount
	j := int(i % int64(r.g.snapsPerBlock))
	if (j+1)*pc > len(f) {
		return nil, corruptf("block %d no longer holds snapshot %d", b, i)
	}
	s := make([]float64, pc)
	copy(s, f[j*pc:])
	return s, nil
}

// Close closes the file. Safe to call more than once.
func (r *Reader) Close() error {
	if r.closed.Swap(true) || r.file == nil {
		return nil
	}
	return r.file.Close()
}
