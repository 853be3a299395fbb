package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"figret/internal/traffic"
)

// synthTrace builds a deterministic trace over n vertices with T
// snapshots, including exact-binary-awkward values (negative zero is
// excluded: demands are non-negative by construction everywhere).
func synthTrace(n, T int, seed int64) *traffic.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := traffic.NewTrace(n)
	for t := 0; t < T; t++ {
		d := make([]float64, tr.Pairs.Count())
		for i := range d {
			d[i] = rng.Float64() * 1000
		}
		if t%7 == 3 {
			d[0] = 0 // sparse entries survive the round trip too
		}
		tr.AppendOwned(d)
	}
	return tr
}

// bitwiseEqual reports whether two traces carry identical float bits.
func bitwiseEqual(a, b *traffic.Trace) bool {
	if a.Len() != b.Len() || a.Pairs.Count() != b.Pairs.Count() {
		return false
	}
	for t := 0; t < a.Len(); t++ {
		sa, sb := a.At(t), b.At(t)
		for i := range sa {
			if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
				return false
			}
		}
	}
	return true
}

// recordSize is the on-disk size of one snapshot record over n vertices.
func recordSize(n int) int64 { return int64(n*(n-1)*8 + crcBytes) }

// TestRoundTripBitwise writes traces through Create and Append and reads
// them back bit for bit. A case's name speaks of its flushes, a flush
// writing every buffered record in one write: a partial flush at Close,
// Append's own flush at exactly its last snapshot (84 records of 40
// vertices are the first to reach flushBytes), several of those and a
// partial one, and a flush after every append, the spool's case.
func TestRoundTripBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, T  int
		every int // Flush after every this many appends (0 = never)
	}{
		{"empty", 4, 0, 0},
		{"single", 4, 1, 0},
		{"partial_block", 4, 3, 0},
		{"exact_block", 40, 84, 0},
		{"multi_block", 40, 200, 0},
		{"default_geometry", 6, 40, 0},
		{"one_snap_blocks", 3, 5, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := synthTrace(tc.n, tc.T, 42)
			path := filepath.Join(t.TempDir(), "trace.fgt")
			w, err := Create(path, tc.n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tr.Len(); i++ {
				if err := w.Append(tr.At(i)); err != nil {
					t.Fatal(err)
				}
				if tc.every > 0 && (i+1)%tc.every == 0 {
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			rec := recordSize(tc.n)
			landed := int64(tc.T) // before Close: Append's own flushes, or the test's
			if per := (flushBytes + rec - 1) / rec; tc.every == 0 {
				landed -= landed % per
			} else {
				landed -= landed % int64(tc.every)
			}
			if w.DurableBytes() != headerBytes+landed*rec {
				t.Fatalf("before Close the file holds %d bytes, want %d records in it", w.DurableBytes(), landed)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, r, err := loadStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if !bitwiseEqual(tr, got) {
				t.Fatal("store round trip is not bitwise identical")
			}
			if int(r.Len()) != tc.T || r.N() != tc.n {
				t.Fatalf("reader reports len=%d n=%d, want %d/%d", r.Len(), r.N(), tc.T, tc.n)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := headerBytes + int64(tc.T)*rec; fi.Size() != want {
				t.Fatalf("file holds %d bytes, want a header and %d records = %d", fi.Size(), tc.T, want)
			}
		})
	}
}

func TestWindowViewsMatchInMemory(t *testing.T) {
	tr := synthTrace(5, 30, 7)
	path := filepath.Join(t.TempDir(), "trace.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	stored, r, err := loadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	H := 6
	pc := tr.Pairs.Count()
	for at := H; at <= tr.Len(); at++ {
		want := tr.Window(at, H)
		// Through the trace read back snapshot by snapshot.
		got := stored.Window(at, H)
		if !bytes.Equal(floatBytes(want), floatBytes(got)) {
			t.Fatalf("trace window at %d differs", at)
		}
		// Through the reader's per-snapshot copies.
		for i := 0; i < H; i++ {
			s, err := r.At(int64(at - H + i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(floatBytes(want[i*pc:(i+1)*pc]), floatBytes(s)) {
				t.Fatalf("reader snapshot %d of the window at %d differs", i, at)
			}
		}
	}
}

// loadStore opens path and reads its whole trace.
func loadStore(path string) (*traffic.Trace, *Reader, error) {
	r, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	tr, err := readTrace(r)
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return tr, r, nil
}

// readTrace reads every snapshot of r, in order, into a trace.
func readTrace(r *Reader) (*traffic.Trace, error) {
	tr := traffic.NewTrace(r.N())
	for i := int64(0); i < r.Len(); i++ {
		s, err := r.At(i)
		if err != nil {
			return nil, err
		}
		tr.AppendOwned(s)
	}
	return tr, nil
}

func floatBytes(f []float64) []byte {
	out := make([]byte, 0, len(f)*8)
	for _, v := range f {
		bits := math.Float64bits(v)
		out = append(out, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return out
}

// readFile is os.ReadFile that fails the test on error.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWriterDeterministicBytes pins the determinism contract: the same
// appends produce the bytes of WriteTrace over the same snapshots,
// whether the writer flushes after every append, every third, or only
// when it closes.
func TestWriterDeterministicBytes(t *testing.T) {
	tr := synthTrace(4, 11, 3)
	dir := t.TempDir()
	want := filepath.Join(dir, "want.fgt")
	if err := WriteTrace(want, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 3, tr.Len() + 1} {
		path := filepath.Join(dir, "b.fgt")
		w, err := Create(path, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.Len(); i++ {
			if err := w.Append(tr.At(i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every == 0 {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, want), readFile(t, path)) {
			t.Fatalf("flushing every %d appends changed the emitted bytes", every)
		}
	}
}

// TestEveryTruncationReopens cuts a store at every length from 0 to its
// full size, as a crash can leave it, and requires OpenAppend to resume
// at the whole records that survive — floor((L − header) / record), or
// 0 below a header — and appending the rest to leave the bytes of
// WriteTrace over the whole trace.
func TestEveryTruncationReopens(t *testing.T) {
	tr := synthTrace(3, 9, 13)
	dir := t.TempDir()
	want := filepath.Join(dir, "want.fgt")
	if err := WriteTrace(want, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	full := readFile(t, want)
	rec := recordSize(3)
	path := filepath.Join(dir, "t.fgt")
	for L := 0; L <= len(full); L++ {
		if err := os.WriteFile(path, full[:L], 0o644); err != nil {
			t.Fatal(err)
		}
		w, tail, err := OpenAppend(path, 3, 4)
		if err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		kept := int64(0)
		if L >= headerBytes {
			kept = (int64(L) - headerBytes) / rec
		}
		if w.Len() != kept || w.DurableBytes() != headerBytes+kept*rec {
			t.Fatalf("L=%d: reopened at %d snapshots (%d durable bytes), want %d", L, w.Len(), w.DurableBytes(), kept)
		}
		checkTail(t, tail, tr, kept, 4)
		if err := w.AppendTrace(tr.Slice(int(kept), tr.Len())); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, path), full) {
			t.Fatalf("L=%d: reopened and completed store differs from WriteTrace", L)
		}
	}
}

// TestOpenAppendOverShortFile: a file shorter than a header — what a
// Create that crashed or hit a full disk before its header landed leaves
// — holds no snapshot, so OpenAppend starts a store there instead of
// refusing it.
func TestOpenAppendOverShortFile(t *testing.T) {
	tr := synthTrace(4, 3, 2)
	dir := t.TempDir()
	want := filepath.Join(dir, "want.fgt")
	if err := WriteTrace(want, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t.fgt")
	for _, size := range []int{0, 10, headerBytes - 1} {
		if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, size), 0o644); err != nil {
			t.Fatal(err)
		}
		w, tail, err := OpenAppend(path, 4, 8)
		if err != nil {
			t.Fatalf("%d-byte file: %v", size, err)
		}
		if w.Len() != 0 || len(tail) != 0 {
			t.Fatalf("%d-byte file: reopened at %d snapshots, want 0", size, w.Len())
		}
		if err := w.AppendTrace(tr); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, path), readFile(t, want)) {
			t.Fatalf("%d-byte file: the store started over it differs from WriteTrace", size)
		}
	}
}

// TestAppendReuseBuffer proves Append does not retain the caller's
// slice: the encode happens before return.
func TestAppendReuseBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.fgt")
	w, err := Create(path, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, w.s.pairCount)
	want := make([][]float64, 5)
	for i := range want {
		for j := range buf {
			buf[j] = float64(i*10 + j)
		}
		want[i] = append([]float64(nil), buf...)
		if err := w.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, r, err := loadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, wv := range want {
		gv := got.At(i)
		for j := range wv {
			if wv[j] != gv[j] {
				t.Fatalf("snapshot %d entry %d: got %v want %v", i, j, gv[j], wv[j])
			}
		}
	}
}

// TestOpenAppendContinues writes a trace in two sessions and requires
// the result to be byte-identical to a single-session write.
func TestOpenAppendContinues(t *testing.T) {
	tr := synthTrace(4, 13, 9)
	dir := t.TempDir()
	oneShot, twoShot := filepath.Join(dir, "one.fgt"), filepath.Join(dir, "two.fgt")
	if err := WriteTrace(oneShot, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 4, 5, 12, 13} {
		w, err := Create(twoShot, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendTrace(tr.Slice(0, cut)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, tail, err := OpenAppend(twoShot, 4, 5)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w.Len() != int64(cut) {
			t.Fatalf("cut %d: reopened writer reports %d snapshots", cut, w.Len())
		}
		checkTail(t, tail, tr, int64(cut), 5)
		if err := w.AppendTrace(tr.Slice(cut, tr.Len())); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, oneShot), readFile(t, twoShot)) {
			t.Fatalf("cut %d: two-session file differs from one-session file", cut)
		}
	}
}

// TestOpenAppendRecoversTornTail crashes mid-record (simulated by
// truncating into the last record) and requires OpenAppend to resume at
// the last intact snapshot while a strict Reader refuses the damaged
// file. A damaged record in the middle ends the durable prefix the same
// way — after a power cut the pages of unsynced flushes land in any
// order, so intact records after a bad one prove nothing — and so does a
// zero-filled tail, which no record's CRC accepts.
func TestOpenAppendRecoversTornTail(t *testing.T) {
	tr := synthTrace(4, 11, 5)
	rec := recordSize(4)
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		kept int64
	}{
		{"torn_last_record", func(b []byte) []byte { return b[:len(b)-30] }, 10},
		{"bitflip_in_record_6", flipByte(headerBytes + int(6*rec) + 9), 6},
		{"zeroed_tail", func(b []byte) []byte { return append(b, make([]byte, 3*rec)...) }, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.fgt")
			if err := WriteTrace(path, tr, Options{}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(readFile(t, path)), 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := Open(path); err == nil {
				_, err = readTrace(r)
				r.Close()
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("reader accepted a damaged file: %v", err)
				}
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: want ErrCorrupt, got %v", err)
			}
			w, tail, err := OpenAppend(path, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			if w.Len() != tc.kept {
				t.Fatalf("recovered writer reports %d snapshots, want %d", w.Len(), tc.kept)
			}
			checkTail(t, tail, tr, tc.kept, 3)
			if err := w.AppendTrace(tr.Slice(int(tc.kept), tr.Len())); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, r, err := loadStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if !bitwiseEqual(tr, got) {
				t.Fatal("recovered + re-appended trace differs from the original")
			}
		})
	}
}

// checkTail fails t unless tail, what OpenAppend handed back with keep,
// is the newest min(keep, kept) of tr's first kept snapshots, bitwise and
// oldest first.
func checkTail(t *testing.T, tail [][]float64, tr *traffic.Trace, kept int64, keep int) {
	t.Helper()
	if want := min(int64(keep), kept); int64(len(tail)) != want {
		t.Fatalf("tail holds %d snapshots, want %d", len(tail), want)
	}
	for j, s := range tail {
		i := int(kept) - len(tail) + j
		if !bytes.Equal(floatBytes(s), floatBytes(tr.At(i))) {
			t.Fatalf("tail[%d] is not snapshot %d bitwise", j, i)
		}
	}
}

// TestOpenAppendTail: OpenAppend hands back the newest keep snapshots of
// the durable prefix, whatever keep is — none, fewer than the prefix,
// exactly it, more than the whole file — and wherever the first damaged
// record sits, the first record and the last included. A damaged record
// read into the ring must not cost the tail a record.
func TestOpenAppendTail(t *testing.T) {
	tr := synthTrace(4, 11, 8)
	rec := int(recordSize(4))
	dir := t.TempDir()
	want := filepath.Join(dir, "want.fgt")
	if err := WriteTrace(want, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t.fgt")
	for _, bad := range []int{-1, 0, 3, 6, 10} {
		img, kept := readFile(t, want), int64(tr.Len())
		if bad >= 0 {
			img, kept = flipByte(headerBytes+bad*rec+9)(img), int64(bad)
		}
		for _, keep := range []int{0, 1, 3, 4, 6, 7, 11, 20} {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			w, tail, err := OpenAppend(path, 4, keep)
			if err != nil {
				t.Fatal(err)
			}
			if w.Len() != kept {
				t.Fatalf("damage at %d, keep %d: reopened at %d snapshots, want %d", bad, keep, w.Len(), kept)
			}
			checkTail(t, tail, tr, kept, keep)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// faultyFile is a store file that fails on a schedule. At step k of a
// test, WriteAt fails with ENOSPC when 2 divides k, and otherwise lands
// a prefix of short bytes and then fails when 3 divides k; Sync fails
// when 5 divides k. Step 0 injects nothing.
type faultyFile struct {
	file
	step, short int
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	switch {
	case f.step == 0:
	case f.step%2 == 0:
		return 0, syscall.ENOSPC
	case f.step%3 == 0:
		n, err := f.file.WriteAt(p[:min(len(p), f.short)], off)
		if err == nil {
			err = io.ErrShortWrite
		}
		return n, err
	}
	return f.file.WriteAt(p, off)
}

func (f *faultyFile) Sync() error {
	if f.step != 0 && f.step%5 == 0 {
		return syscall.EIO
	}
	return f.file.Sync()
}

// TestWriterFaultSchedule puts a faultyFile under a writer and appends
// and syncs one snapshot per step. The fault periods 2, 3 and 5 are
// pairwise coprime, so steps 1 to 30 meet each of the 30 phase
// combinations once. Every step's Sync fails exactly when a fault is due,
// and after every step a copy of the file reopens at exactly the
// writer's durable records, holding them bitwise: a failed write lands
// nothing recovery keeps, and a failed fsync loses nothing a process
// crash would. Once the faults stop, Close leaves WriteTrace's bytes.
func TestWriterFaultSchedule(t *testing.T) {
	tr := synthTrace(4, 30, 12)
	rec := recordSize(4)
	dir := t.TempDir()
	want, path, cp := filepath.Join(dir, "want.fgt"), filepath.Join(dir, "t.fgt"), filepath.Join(dir, "copy.fgt")
	if err := WriteTrace(want, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{file: w.f, short: int(rec) - 1}
	w.f = ff
	for k := 1; k <= tr.Len(); k++ {
		ff.step = k
		if err := w.Append(tr.At(k - 1)); err != nil {
			t.Fatalf("step %d: Append: %v", k, err)
		}
		err := w.Sync()
		if due := k%2 == 0 || k%3 == 0 || k%5 == 0; (err != nil) != due {
			t.Fatalf("step %d: Sync returned %v with a fault due: %v", k, err, due)
		}
		if k%2 == 0 && !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("step %d: Sync returned %v, want ENOSPC", k, err)
		}
		if err := os.WriteFile(cp, readFile(t, path), 0o644); err != nil {
			t.Fatal(err)
		}
		c, tail, err := OpenAppend(cp, 4, tr.Len())
		if err != nil {
			t.Fatalf("step %d: reopening a copy: %v", k, err)
		}
		durable := (w.DurableBytes() - headerBytes) / rec
		if c.Len() != durable {
			t.Fatalf("step %d: the copy reopens at %d snapshots, the writer has %d durable", k, c.Len(), durable)
		}
		checkTail(t, tail, tr, durable, tr.Len())
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ff.step = 0
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, path), readFile(t, want)) {
		t.Fatal("after the faults stop, Close leaves other bytes than WriteTrace")
	}
}

// TestCorruptionSurfacesAsErrors flips bits and mangles framing; every
// damage mode must surface as ErrCorrupt, and never a panic.
func TestCorruptionSurfacesAsErrors(t *testing.T) {
	tr := synthTrace(4, 9, 6)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	pristine := readFile(t, path)
	rec := int(recordSize(4))
	damage := []struct {
		name  string
		mut   func([]byte) []byte
		openE bool // error expected at Open (vs at At)
	}{
		{"empty_file", func(b []byte) []byte { return nil }, true},
		{"short_header", func(b []byte) []byte { return b[:16] }, true},
		{"bad_magic", flipByte(0), true},
		{"header_bitflip", flipByte(13), true},
		{"header_crc_bitflip", flipByte(21), true},
		{"payload_bitflip", flipByte(headerBytes + 17), false},
		{"record_crc_bitflip", flipByte(headerBytes + rec - 2), false},
		{"tail_payload_bitflip", flipByte(headerBytes + 8*rec + 3), false},
		{"records_swapped", func(b []byte) []byte {
			r0 := append([]byte(nil), b[headerBytes:headerBytes+rec]...)
			copy(b[headerBytes:], b[headerBytes+rec:headerBytes+2*rec])
			copy(b[headerBytes+rec:], r0)
			return b
		}, false},
		{"zeroed_record", func(b []byte) []byte {
			clear(b[headerBytes+4*rec : headerBytes+5*rec])
			return b
		}, false},
		{"truncated_mid_block", func(b []byte) []byte { return b[:len(b)-50] }, true},
		{"trailing_garbage", func(b []byte) []byte { return append(b, 1, 2, 3) }, true},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			bad := d.mut(append([]byte(nil), pristine...))
			p := filepath.Join(t.TempDir(), "bad.fgt")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(p)
			if d.openE {
				if err == nil {
					r.Close()
					t.Fatal("Open accepted damaged file")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("want ErrCorrupt, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("structural open should succeed (record damage is found by At): %v", err)
			}
			defer r.Close()
			if _, err := readTrace(r); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("At on a damaged record: want ErrCorrupt, got %v", err)
			}
		})
	}
}

func flipByte(off int) func([]byte) []byte {
	return func(b []byte) []byte {
		b[off] ^= 0x40
		return b
	}
}

// foreignVersion rewrites a store image's header to claim format
// version+1, re-checksummed so only the version is foreign.
func foreignVersion(b []byte) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[8:12], version+1)
	binary.LittleEndian.PutUint32(out[20:24], crc32.ChecksumIEEE(out[:20]))
	return out
}

// version1Header builds the 4 KiB header page of a version-1 store over
// n vertices with snapsPerBlock snapshots per block: magic "FIGTRCS1",
// version, n, pairCount, snapsPerBlock, a reserved word and a CRC-32 over
// the 28 bytes before it, then zero padding.
func version1Header(n, snapsPerBlock int) []byte {
	buf := make([]byte, 4096)
	copy(buf, "FIGTRCS1")
	le := binary.LittleEndian
	le.PutUint32(buf[8:], 1)
	le.PutUint32(buf[12:], uint32(n))
	le.PutUint32(buf[16:], uint32(n*(n-1)))
	le.PutUint32(buf[20:], uint32(snapsPerBlock))
	le.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[:28]))
	return buf
}

// TestForeignVersion rejects a file of another format version with
// ErrVersion, not ErrCorrupt: a newer version's header, a version-1
// store (the block layout this format replaced) and a header whose magic
// names generation 1, through Open and through OpenAppend, which must
// leave the refused file as it was.
func TestForeignVersion(t *testing.T) {
	tr := synthTrace(4, 3, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	v1Magic := readFile(t, path)
	v1Magic[7] = '1' // the generation digit disagrees with the version field
	binary.LittleEndian.PutUint32(v1Magic[20:24], crc32.ChecksumIEEE(v1Magic[:20]))
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"newer", foreignVersion(readFile(t, path))},
		{"v1", version1Header(4, 8)},
		{"v1_magic", v1Magic},
	} {
		name, img := tc.name, tc.img
		p := filepath.Join(dir, name+".fgt")
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(p)
		if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open: want ErrVersion and not ErrCorrupt, got %v", name, err)
		}
		if _, _, err := OpenAppend(p, 4, 8); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: OpenAppend: want ErrVersion, got %v", name, err)
		}
		if !bytes.Equal(readFile(t, p), img) {
			t.Fatalf("%s: OpenAppend changed a file it refused", name)
		}
	}
}

// TestMismatchedVertexCount: OpenAppend refuses to append snapshots of
// the wrong width.
func TestMismatchedVertexCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, synthTrace(4, 2, 1), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenAppend(path, 5, 8); err == nil {
		t.Fatal("OpenAppend accepted a store of a different vertex count")
	}
}

// TestViewCapacityClipped: a loaded trace behaves like an in-memory one —
// each snapshot's capacity is its length, and appending to a slice view
// of the trace reallocates instead of clobbering the parent.
func TestViewCapacityClipped(t *testing.T) {
	tr := synthTrace(4, 6, 2)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	got, r, err := loadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s0 := got.At(0)
	if cap(s0) != len(s0) {
		t.Fatalf("snapshot capacity %d exceeds length %d", cap(s0), len(s0))
	}
	// Slice views of the loaded trace behave exactly like in-memory ones.
	view := got.Slice(0, 2)
	if err := view.Append(make([]float64, got.Pairs.Count())); err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(tr.Slice(2, 3), got.Slice(2, 3)) {
		t.Fatal("append to a view clobbered the parent's snapshot 2")
	}
}

// TestConcurrentReaders reads one Reader from eight goroutines (run with
// -race in CI's tracestore job).
func TestConcurrentReaders(t *testing.T) {
	tr := synthTrace(5, 40, 8)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := int64(0); i < r.Len(); i++ {
				s, err := r.At(i)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(floatBytes(s), floatBytes(tr.At(int(i)))) {
					done <- errors.New("snapshot differs")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Stats().BlocksVerified, uint64(8*tr.Len()); got != want {
		t.Fatalf("%d records verified, want %d", got, want)
	}
}

// TestHandleStats: each Writer and Reader counts exactly its own I/O, a
// block being one record. A writer books its header and every record it
// lands, at the bytes it wrote; a reader books each record At checks,
// each time; OpenAppend books every intact record its recovery walk
// checks, and stops at a torn one.
func TestHandleStats(t *testing.T) {
	tr := synthTrace(4, 10, 3)
	rec := uint64(recordSize(4))
	path := filepath.Join(t.TempDir(), "t.fgt")
	w, err := Create(path, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(tr.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == 8 { // one flush of 9 records, then Close's of 1
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Stats(), (CounterStats{BlocksWritten: 10, BytesWritten: headerBytes + 10*rec}); got != want {
		t.Errorf("writer: %+v, want %+v", got, want)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats(); got != (CounterStats{}) {
		t.Errorf("reader after Open: %+v, want nothing read", got)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := readTrace(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Stats(), (CounterStats{BlocksVerified: 20, BytesRead: 20 * rec}); got != want {
		t.Errorf("reader: %+v, want %+v", got, want)
	}

	a, _, err := OpenAppend(path, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Stats(), (CounterStats{BlocksVerified: 10, BytesRead: 10 * rec}); got != want {
		t.Errorf("OpenAppend: %+v, want %+v", got, want)
	}
	a.Close()
	if err := os.Truncate(path, int64(headerBytes+10*rec-1)); err != nil {
		t.Fatal(err)
	}
	if a, _, err = OpenAppend(path, 4, 8); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got, want := a.Stats(), (CounterStats{BlocksVerified: 9, BytesRead: 9 * rec}); got != want {
		t.Errorf("OpenAppend over a torn tail: %+v, want %+v", got, want)
	}
}

// TestAtReturnsOwnedSlice: a snapshot At returns belongs to the caller;
// writing to it leaves what the next At returns untouched.
func TestAtReturnsOwnedSlice(t *testing.T) {
	tr := synthTrace(4, 5, 4)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := int64(0); i < r.Len(); i++ {
		s, err := r.At(i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range s {
			s[j] = -1
		}
		again, err := r.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(floatBytes(again), floatBytes(tr.At(int(i)))) {
			t.Fatalf("snapshot %d: a write to a returned slice reached the reader", i)
		}
	}
}

// TestTruncatedAfterOpen: a store that shrinks under an open Reader —
// another process truncating a spool file, say — makes At return
// ErrCorrupt for the snapshots that went, and keeps serving the ones
// still on disk.
func TestTruncatedAfterOpen(t *testing.T) {
	tr := synthTrace(4, 11, 5)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Keep the header, records 0..3 and half of record 4.
	rec := recordSize(4)
	if err := os.Truncate(path, headerBytes+4*rec+rec/2); err != nil {
		t.Fatal(err)
	}
	for i := int64(4); i < r.Len(); i++ {
		if _, err := r.At(i); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("At(%d) past the truncation: want ErrCorrupt, got %v", i, err)
		}
	}
	for i := int64(0); i < 4; i++ {
		s, err := r.At(i)
		if err != nil {
			t.Fatalf("At(%d) before the truncation: %v", i, err)
		}
		if !bytes.Equal(floatBytes(s), floatBytes(tr.At(int(i)))) {
			t.Fatalf("snapshot %d differs after the truncation", i)
		}
	}
}
