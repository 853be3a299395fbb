package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

func TestRoundTripBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, T  int
		snaps int // SnapsPerBlock (0 = default)
	}{
		{"empty", 4, 0, 0},
		{"single", 4, 1, 0},
		{"partial_block", 4, 3, 8},
		{"exact_block", 4, 8, 8},
		{"multi_block", 5, 23, 4},
		{"default_geometry", 6, 40, 0},
		{"one_snap_blocks", 3, 5, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := synthTrace(tc.n, tc.T, 42)
			path := filepath.Join(t.TempDir(), "trace.fgt")
			if err := WriteTrace(path, tr, Options{SnapsPerBlock: tc.snaps}); err != nil {
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
		})
	}
}

func TestWindowViewsMatchInMemory(t *testing.T) {
	tr := synthTrace(5, 30, 7)
	path := filepath.Join(t.TempDir(), "trace.fgt")
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 4}); err != nil {
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

// TestWriterDeterministicBytes pins the determinism contract: the same
// appends produce byte-identical files, regardless of flush cadence.
func TestWriterDeterministicBytes(t *testing.T) {
	tr := synthTrace(4, 11, 3)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.fgt"), filepath.Join(dir, "b.fgt")
	if err := WriteTrace(a, tr, Options{SnapsPerBlock: 4}); err != nil {
		t.Fatal(err)
	}
	// Same snapshots, but flushed after every single append.
	w, err := Create(b, 4, Options{SnapsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if err := w.Append(tr.At(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("flush cadence changed the emitted bytes")
	}
}

// TestAppendReuseBuffer proves Append does not retain the caller's
// slice: the encode happens before return.
func TestAppendReuseBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.fgt")
	w, err := Create(path, 3, Options{SnapsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, w.g.pairCount)
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
	if err := WriteTrace(oneShot, tr, Options{SnapsPerBlock: 4}); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 4, 5, 12, 13} {
		w, err := Create(twoShot, 4, Options{SnapsPerBlock: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendTrace(tr.Slice(0, cut)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, err = OpenAppend(twoShot, 4, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w.Len() != int64(cut) {
			t.Fatalf("cut %d: reopened writer reports %d snapshots", cut, w.Len())
		}
		if err := w.AppendTrace(tr.Slice(cut, tr.Len())); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(oneShot)
		b, _ := os.ReadFile(twoShot)
		if !bytes.Equal(a, b) {
			t.Fatalf("cut %d: two-session file differs from one-session file", cut)
		}
	}
}

// TestOpenAppendRecoversTornTail crashes mid-block (simulated by
// truncating into the tail block) and requires OpenAppend to resume at
// the last intact snapshot while a strict Reader refuses the torn file.
func TestOpenAppendRecoversTornTail(t *testing.T) {
	tr := synthTrace(4, 11, 5)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 4}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail block: cut 100 bytes out of the last block slot.
	if err := os.Truncate(path, fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reader accepted a torn file: %v", err)
	}
	w, err := OpenAppend(path, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 11 snapshots at 4/block = 2 full blocks + torn tail of 3: recovery
	// keeps the 8 durable ones.
	if w.Len() != 8 {
		t.Fatalf("recovered writer reports %d snapshots, want 8", w.Len())
	}
	if err := w.AppendTrace(tr.Slice(8, tr.Len())); err != nil {
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
}

// TestCorruptionSurfacesAsErrors flips bits and mangles framing; every
// damage mode must surface as an error (ErrCorrupt or ErrVersion), and
// never a panic.
func TestCorruptionSurfacesAsErrors(t *testing.T) {
	tr := synthTrace(4, 9, 6)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 4}); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := []struct {
		name  string
		mut   func([]byte) []byte
		openE bool // error expected at Open (vs at At)
	}{
		{"empty_file", func(b []byte) []byte { return nil }, true},
		{"short_header", func(b []byte) []byte { return b[:16] }, true},
		{"bad_magic", flipByte(0), true},
		{"header_bitflip", flipByte(13), true},
		{"block_header_bitflip", flipByte(headerBytes + 5), true},
		{"payload_bitflip", flipByte(headerBytes + blockHeaderBytes + 17), false},
		{"tail_payload_bitflip", flipByte(3*pageSize + blockHeaderBytes + 3), false},
		{"truncated_mid_block", func(b []byte) []byte { return b[:len(b)-50] }, true},
		{"trailing_garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 1, 2, 3) }, true},
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
				t.Fatalf("structural open should succeed (payload damage is lazy): %v", err)
			}
			defer r.Close()
			if _, err := readTrace(r); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("At on flipped payload: want ErrCorrupt, got %v", err)
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
// version+1, re-checksummed so decode reaches the version check.
func foreignVersion(b []byte) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[8:12], version+1)
	binary.LittleEndian.PutUint32(out[28:32], crc32.ChecksumIEEE(out[:28]))
	return out
}

// TestForeignVersion rejects a structurally-valid file of a newer
// format version with ErrVersion, not ErrCorrupt.
func TestForeignVersion(t *testing.T) {
	tr := synthTrace(4, 3, 1)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, foreignVersion(b), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("a foreign version is not corruption")
	}
}

// TestMismatchedVertexCount: OpenAppend refuses to append snapshots of
// the wrong width.
func TestMismatchedVertexCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, synthTrace(4, 2, 1), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppend(path, 5, Options{}); err == nil {
		t.Fatal("OpenAppend accepted a store of a different vertex count")
	}
}

// TestViewCapacityClipped: a loaded trace behaves like an in-memory one —
// each snapshot's capacity is its length, and appending to a slice view
// of the trace reallocates instead of clobbering the parent.
func TestViewCapacityClipped(t *testing.T) {
	tr := synthTrace(4, 6, 2)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 3}); err != nil {
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

// TestConcurrentReaders exercises the lazy per-block verification under
// concurrency (run with -race in CI's tracestore job).
func TestConcurrentReaders(t *testing.T) {
	tr := synthTrace(5, 40, 8)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 4}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := int64(0); i < r.Len(); i++ {
				s, err := r.At(i)
				if err != nil {
					done <- err
					return
				}
				if len(s) != r.g.pairCount {
					done <- errors.New("short snapshot")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandleStats: each Writer and Reader counts exactly its own I/O. A
// writer books its header and every block write, tail rewrites included;
// a reader books each block it checks, once; OpenAppend books every intact
// block its recovery walk checks, and stops at a torn one.
func TestHandleStats(t *testing.T) {
	tr := synthTrace(4, 10, 3)
	g, err := newGeometry(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	blk := uint64(g.blockBytes)
	path := filepath.Join(t.TempDir(), "t.fgt")
	w, err := Create(path, 4, Options{SnapsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(tr.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == 8 { // land a 1-snapshot tail that the 10th append rewrites
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Two full blocks, the tail at 1 snapshot, the tail at 2.
	if got, want := w.Stats(), (CounterStats{BlocksWritten: 4, BytesWritten: headerBytes + 4*blk}); got != want {
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
	for pass := 0; pass < 2; pass++ { // the second pass hits the cache
		if _, err := readTrace(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Stats(), (CounterStats{BlocksVerified: 3, BytesRead: 3 * blk}); got != want {
		t.Errorf("reader: %+v, want %+v", got, want)
	}

	a, err := OpenAppend(path, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Stats(), (CounterStats{BlocksVerified: 3, BytesRead: 3 * blk}); got != want {
		t.Errorf("OpenAppend: %+v, want %+v", got, want)
	}
	a.Close()
	if err := os.Truncate(path, int64(headerBytes+3*blk-1)); err != nil {
		t.Fatal(err)
	}
	if a, err = OpenAppend(path, 4, Options{}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got, want := a.Stats(), (CounterStats{BlocksVerified: 2, BytesRead: 2 * blk}); got != want {
		t.Errorf("OpenAppend over a torn tail: %+v, want %+v", got, want)
	}
}

// TestAtReturnsOwnedSlice: a snapshot At returns belongs to the caller;
// writing to it leaves what the next At returns untouched.
func TestAtReturnsOwnedSlice(t *testing.T) {
	tr := synthTrace(4, 5, 4)
	path := filepath.Join(t.TempDir(), "t.fgt")
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 2}); err != nil {
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
	if err := WriteTrace(path, tr, Options{SnapsPerBlock: 4}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Keep the header and block 0; blocks 1 and 2 go.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, headerBytes+(fi.Size()-headerBytes)/3); err != nil {
		t.Fatal(err)
	}
	for i := int64(4); i < r.Len(); i++ {
		if _, err := r.At(i); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("At(%d) past the truncation: want ErrCorrupt, got %v", i, err)
		}
	}
	s, err := r.At(0)
	if err != nil {
		t.Fatalf("At(0) before the truncation: %v", err)
	}
	if !bytes.Equal(floatBytes(s), floatBytes(tr.At(0))) {
		t.Fatal("snapshot 0 differs after the truncation")
	}
}
