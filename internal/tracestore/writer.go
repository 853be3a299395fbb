package tracestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"figret/internal/traffic"
)

// Options tunes a store file's fixed geometry at create time.
type Options struct {
	// SnapsPerBlock pins the snapshots per block. <= 0 picks the
	// default: as many as fit ~1 MiB of payload, at least 1. The value
	// is baked into the header; appends to an existing file inherit it.
	SnapsPerBlock int
}

// Writer streams snapshots into a store file. Appends buffer one block
// in memory; a full block is written (with its checksum) at its final
// offset and never touched again, while Flush persists the partial tail
// block as it fills. A block's slot is zero-filled once, when the file
// is extended over it; each later flush writes only the snapshots
// appended since the last one, then the 64-byte block header, so a crash
// between the two leaves the previous header, which still covers exactly
// the snapshots it counted. The file header never changes after Create,
// so the only bytes a crash can tear are the tail block's — which its
// CRC detects and OpenAppend truncates away.
//
// The emitted bytes are a pure function of (n, SnapsPerBlock, the
// appended snapshots): every byte past the last snapshot of a block is
// zero, so two writers given the same appends produce byte-identical
// files, however often they flushed.
//
// A Writer is single-owner: it is not safe for concurrent use.
type Writer struct {
	f *os.File
	g geometry

	nBlocks   int    // full blocks durably at their final offsets
	buf       []byte // one block: header + payload, blockBytes long
	bufCount  int    // snapshots currently in buf
	landed    int    // of those, the ones in the file behind a header counting them
	total     int64  // snapshots appended (durable + buffered)
	fileBytes int64  // file size as of the last write (header + landed blocks)
	closed    bool
	stats     CounterStats
}

// Create creates (truncating any existing file) a store for traces over
// n vertices and writes its header.
func Create(path string, n int, opt Options) (*Writer, error) {
	g, err := newGeometry(n, opt.SnapsPerBlock)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	w := &Writer{f: f, g: g, buf: make([]byte, g.blockBytes), fileBytes: headerBytes}
	if _, err := f.WriteAt(encodeHeader(g), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: write header: %w", err)
	}
	w.stats.BytesWritten = headerBytes
	return w, nil
}

// OpenAppend opens path for appending, creating it (with opt geometry)
// when absent. An existing file must be a store over n vertices; its
// blocks are validated front to back and anything after the last intact
// block — a torn tail write, trailing garbage — is truncated away, so a
// crashed writer's file reopens cleanly at the last durable snapshot.
func OpenAppend(path string, n int, opt Options) (*Writer, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return Create(path, n, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	w, err := recoverAppend(f, fi.Size(), n)
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recoverAppend validates an existing store front to back and positions
// a writer after its last intact snapshot.
func recoverAppend(f *os.File, size int64, n int) (*Writer, error) {
	hdr := make([]byte, headerUsed)
	if err := readAt(f, hdr, 0); err != nil {
		return nil, err
	}
	g, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	if g.n != n {
		return nil, fmt.Errorf("tracestore: store holds %d-vertex traces, want %d", g.n, n)
	}
	w := &Writer{f: f, g: g, buf: make([]byte, g.blockBytes)}
	block := make([]byte, g.blockBytes)
	good := int64(headerBytes) // prefix known intact
	for i := 0; ; i++ {
		count, payload, err := readBlock(f, g, i, block)
		if err != nil {
			break // a short, damaged or absent block ends the durable prefix
		}
		good = g.blockOffset(i) + int64(g.blockBytes)
		w.stats.BlocksVerified++
		w.stats.BytesRead += uint64(len(block))
		if count < g.snapsPerBlock {
			// Partial tail: pull it into the buffer and keep filling it.
			// A crash between a flush's snapshot and header writes leaves
			// snapshots past count; zero them, so that the next flush
			// writes only its own and the bytes stay deterministic.
			used := blockHeaderBytes + len(payload)
			copy(w.buf[blockHeaderBytes:], payload)
			w.bufCount, w.landed = count, count
			w.total += int64(count)
			if slices.ContainsFunc(block[used:], func(c byte) bool { return c != 0 }) {
				if _, err := f.WriteAt(w.buf[used:], g.blockOffset(i)+int64(used)); err != nil {
					return nil, fmt.Errorf("tracestore: clearing torn tail: %w", err)
				}
				w.stats.BytesWritten += uint64(len(w.buf) - used)
			}
			break
		}
		w.nBlocks = i + 1
		w.total = int64(w.nBlocks) * int64(g.snapsPerBlock)
	}
	if good != size {
		if err := f.Truncate(good); err != nil {
			return nil, fmt.Errorf("tracestore: truncating torn tail: %w", err)
		}
	}
	w.fileBytes = good
	return w, nil
}

// Len returns the number of snapshots appended so far (durable plus
// buffered; Flush or Close makes them all durable).
func (w *Writer) Len() int64 { return w.total }

// DurableBytes returns how many bytes of the store sit durably at their
// final offsets — the file size after the last flush. Buffered appends
// are excluded until Flush/Close lands them; cmd/served exports this as
// its spool-size gauge.
func (w *Writer) DurableBytes() int64 { return w.fileBytes }

// Stats returns the Writer's I/O so far, OpenAppend's recovery walk
// included as verified reads.
func (w *Writer) Stats() CounterStats { return w.stats }

// Append adds one snapshot (pairCount demand entries). The slice is
// encoded immediately; the caller may reuse it. A full block is written
// out synchronously; partial blocks stay buffered until Flush or Close.
func (w *Writer) Append(d []float64) error {
	if w.closed {
		return fmt.Errorf("tracestore: append on closed writer")
	}
	if len(d) != w.g.pairCount {
		return fmt.Errorf("tracestore: snapshot has %d entries, want %d", len(d), w.g.pairCount)
	}
	off := blockHeaderBytes + w.bufCount*w.g.pairCount*8
	le := binary.LittleEndian
	for _, v := range d {
		le.PutUint64(w.buf[off:], math.Float64bits(v))
		off += 8
	}
	w.bufCount++
	w.total++
	if w.bufCount == w.g.snapsPerBlock {
		return w.flushBlock()
	}
	return nil
}

// AppendTrace appends every snapshot of tr.
func (w *Writer) AppendTrace(tr *traffic.Trace) error {
	if tr.Pairs.Count() != w.g.pairCount {
		return fmt.Errorf("tracestore: trace has %d pairs, store wants %d", tr.Pairs.Count(), w.g.pairCount)
	}
	for i := 0; i < tr.Len(); i++ {
		if err := w.Append(tr.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// flushBlock lands the buffered snapshots of the tail block that are not
// in the file yet. The block's first landing extends the file over its
// slot, which zero-fills it, and writes the block header and snapshots in
// one write. A later one writes the new snapshots, then the header that
// counts them. A full block's slot is final and never rewritten: the
// buffer starts the next block.
func (w *Writer) flushBlock() error {
	off := w.g.blockOffset(w.nBlocks)
	if end := off + int64(w.g.blockBytes); w.fileBytes < end {
		if err := w.f.Truncate(end); err != nil {
			return fmt.Errorf("tracestore: extend to block %d: %w", w.nBlocks, err)
		}
		w.fileBytes = end
	}
	row := w.g.pairCount * 8
	from, used := blockHeaderBytes+w.landed*row, blockHeaderBytes+w.bufCount*row
	encodeBlockHeader(w.buf, int64(w.nBlocks)*int64(w.g.snapsPerBlock), w.bufCount,
		crc32.ChecksumIEEE(w.buf[blockHeaderBytes:used]))
	if w.landed == 0 {
		from = 0 // the header goes with the snapshots
	}
	if _, err := w.f.WriteAt(w.buf[from:used], off+int64(from)); err != nil {
		return fmt.Errorf("tracestore: write block %d: %w", w.nBlocks, err)
	}
	if from > 0 {
		if _, err := w.f.WriteAt(w.buf[:blockHeaderBytes], off); err != nil {
			return fmt.Errorf("tracestore: write block %d header: %w", w.nBlocks, err)
		}
		w.stats.BytesWritten += blockHeaderBytes
	}
	w.stats.BlocksWritten++
	w.stats.BytesWritten += uint64(used - from)
	w.landed = w.bufCount
	if w.bufCount == w.g.snapsPerBlock {
		w.nBlocks++
		w.bufCount, w.landed = 0, 0
	}
	return nil
}

// Flush writes the partial tail block, if any appends are buffered.
// After Flush every appended snapshot is in the file (durability
// against process crash; call Sync for durability against power loss).
func (w *Writer) Flush() error {
	if w.closed {
		return fmt.Errorf("tracestore: flush on closed writer")
	}
	if w.landed == w.bufCount {
		return nil
	}
	return w.flushBlock()
}

// Sync flushes buffered appends and fsyncs the file.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes, syncs and closes the file. The writer is unusable
// afterwards. Safe to call once.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	err := w.Sync()
	w.closed = true
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteTrace writes tr as a complete store file at path, atomically: it
// builds the file under a temporary name in the same directory and
// renames it into place, so concurrent readers (and crashed writers)
// never observe a partial file — the PathStore publication discipline.
func WriteTrace(path string, tr *traffic.Trace, opt Options) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "trace-*.tmp")
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	tmpName := tmp.Name()
	tmp.Close()
	w, err := Create(tmpName, tr.Pairs.N(), opt)
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := w.AppendTrace(tr); err != nil {
		w.Close()
		os.Remove(tmpName)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}
