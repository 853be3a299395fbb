package tracestore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"figret/internal/traffic"
)

// Options holds create-time settings of a store file. It has no field:
// a store's layout follows from its vertex count alone.
type Options struct{}

// file is a Writer's store file after Create: the seam for test faults.
type file interface {
	io.WriterAt
	Sync() error
	Close() error
}

// Writer streams snapshots into a store file. Append encodes each
// snapshot as its record in a buffer; Flush writes every buffered record
// with one write at the durable end of the file, so no byte already in
// the file is ever rewritten. A failed flush keeps its buffer, and the
// next flush writes it to the same offset. Append flushes by itself once
// about flushBytes are buffered.
//
// The emitted bytes are a pure function of (n, the appended snapshots),
// so two writers given the same appends produce byte-identical files,
// however often they flushed.
//
// A Writer is single-owner: it is not safe for concurrent use.
type Writer struct {
	f file
	s shape

	buf     []byte // encoded records not yet in the file
	durable int64  // records in the file
	total   int64  // records appended (durable + buffered)
	closed  bool
	stats   CounterStats
}

// Create creates (truncating any existing file) a store for traces over
// n vertices and writes its header. If the header cannot be written the
// file is removed, so a store file on disk always has its header.
func Create(path string, n int, opt Options) (*Writer, error) {
	s, err := newShape(n)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if _, err := f.WriteAt(encodeHeader(s), 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("tracestore: write header: %w", err)
	}
	w := &Writer{f: f, s: s}
	w.stats.BytesWritten = headerBytes
	return w, nil
}

// OpenAppend opens path for appending, creating it when absent, and
// returns with the writer the newest keep intact snapshots, oldest
// first, as slices the caller owns. A file shorter than a header holds
// no snapshot — a Create that crashed or failed before its header
// landed — and is created afresh. Any other file must be a store over n
// vertices; its records are checked front to back and everything from
// the first damaged one on — a torn flush, trailing garbage — is
// truncated away, so a crashed writer's file reopens cleanly at the
// last durable snapshot.
func OpenAppend(path string, n, keep int) (*Writer, [][]float64, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) || err == nil && fi.Size() < headerBytes {
		w, err := Create(path, n, Options{})
		return w, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("tracestore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("tracestore: %w", err)
	}
	w, tail, err := recoverAppend(f, fi.Size(), n, keep)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, tail, nil
}

// recoverAppend checks an existing store's records front to back through
// one buffered sequential read, positions a writer after the last intact
// one and decodes the newest keep of them. Their raw bytes wait in a ring
// of keep+1 slots, and each record is read into the slot that holds none
// of them, so a damaged record never overwrites one the tail needs.
func recoverAppend(f *os.File, size int64, n, keep int) (*Writer, [][]float64, error) {
	s, err := readHeader(f)
	if err != nil {
		return nil, nil, err
	}
	if s.n != n {
		return nil, nil, fmt.Errorf("tracestore: store holds %d-vertex traces, want %d", s.n, n)
	}
	w := &Writer{f: f, s: s}
	body, rb := size-headerBytes, int64(s.recordBytes())
	src := bufio.NewReaderSize(io.NewSectionReader(f, headerBytes, body), int(min(body, flushBytes)))
	slots := max(0, min(int64(keep), body/rb)) + 1
	ring := make([]byte, slots*rb)
	slot := func(i int64) []byte { return ring[i%slots*rb:][:rb] }
	for {
		rec := slot(w.durable)
		if _, err := io.ReadFull(src, rec); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, nil, fmt.Errorf("tracestore: read snapshot %d: %w", w.durable, err)
			}
			break // the file ends here, or mid-record
		}
		if checkRecord(rec, w.durable) != nil {
			break // a damaged record ends the durable prefix
		}
		w.durable++
	}
	w.total = w.durable
	w.stats.BlocksVerified, w.stats.BytesRead = uint64(w.durable), uint64(w.durable*rb)
	if good := s.offset(w.durable); good != size {
		if err := f.Truncate(good); err != nil {
			return nil, nil, fmt.Errorf("tracestore: truncating torn tail: %w", err)
		}
	}
	tail := make([][]float64, min(slots-1, w.durable))
	for j := range tail {
		tail[j] = decodeRecord(slot(w.durable - int64(len(tail)-j)))
	}
	return w, tail, nil
}

// Len returns the number of snapshots appended so far (durable plus
// buffered; Flush or Close makes them all durable).
func (w *Writer) Len() int64 { return w.total }

// DurableBytes returns how many bytes of the store sit durably at their
// final offsets — the file size after the last flush. Buffered appends
// are excluded until Flush/Close lands them; cmd/served exports this as
// its spool-size gauge.
func (w *Writer) DurableBytes() int64 { return w.s.offset(w.durable) }

// Stats returns the Writer's I/O so far, OpenAppend's recovery walk
// included as verified reads.
func (w *Writer) Stats() CounterStats { return w.stats }

// Append adds one snapshot (pairCount demand entries). The slice is
// encoded immediately; the caller may reuse it. The record stays
// buffered until Flush or Close, or until about flushBytes are buffered.
func (w *Writer) Append(d []float64) error {
	if w.closed {
		return fmt.Errorf("tracestore: append on closed writer")
	}
	if len(d) != w.s.pairCount {
		return fmt.Errorf("tracestore: snapshot has %d entries, want %d", len(d), w.s.pairCount)
	}
	w.buf = appendRecord(w.buf, w.total, d)
	w.total++
	if len(w.buf) >= flushBytes {
		return w.Flush()
	}
	return nil
}

// AppendTrace appends every snapshot of tr.
func (w *Writer) AppendTrace(tr *traffic.Trace) error {
	if tr.Pairs.Count() != w.s.pairCount {
		return fmt.Errorf("tracestore: trace has %d pairs, store wants %d", tr.Pairs.Count(), w.s.pairCount)
	}
	for i := 0; i < tr.Len(); i++ {
		if err := w.Append(tr.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every buffered record with one write at the durable end
// of the file. After Flush every appended snapshot is in the file
// (durability against process crash; call Sync for durability against
// power loss).
func (w *Writer) Flush() error {
	if w.closed {
		return fmt.Errorf("tracestore: flush on closed writer")
	}
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.DurableBytes()); err != nil {
		return fmt.Errorf("tracestore: write snapshots %d..%d: %w", w.durable, w.total-1, err)
	}
	w.stats.BlocksWritten += uint64(w.total - w.durable)
	w.stats.BytesWritten += uint64(len(w.buf))
	w.durable = w.total
	w.buf = w.buf[:0]
	return nil
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
