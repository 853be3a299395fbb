package te

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"figret/internal/graph"
)

// samePathSet asserts every exported structure and the CSR of two path
// sets are bitwise identical.
func samePathSet(t *testing.T, got, want *PathSet) {
	t.Helper()
	if got.NumPaths() != want.NumPaths() {
		t.Fatalf("%d paths, want %d", got.NumPaths(), want.NumPaths())
	}
	for p := range want.Paths {
		if !got.Paths[p].Equal(want.Paths[p]) {
			t.Fatalf("path %d = %v, want %v", p, got.Paths[p], want.Paths[p])
		}
		if got.PairOf[p] != want.PairOf[p] {
			t.Fatalf("PairOf[%d] = %d, want %d", p, got.PairOf[p], want.PairOf[p])
		}
		if got.Cap[p] != want.Cap[p] {
			t.Fatalf("Cap[%d] = %v, want %v", p, got.Cap[p], want.Cap[p])
		}
	}
	for pi := range want.PairPaths {
		if len(got.PairPaths[pi]) != len(want.PairPaths[pi]) {
			t.Fatalf("PairPaths[%d] length mismatch", pi)
		}
		for i := range want.PairPaths[pi] {
			if got.PairPaths[pi][i] != want.PairPaths[pi][i] {
				t.Fatalf("PairPaths[%d][%d] mismatch", pi, i)
			}
		}
	}
	gIDs, gStart := got.EdgeCSR()
	wIDs, wStart := want.EdgeCSR()
	if len(gIDs) != len(wIDs) || len(gStart) != len(wStart) {
		t.Fatal("CSR layout size mismatch")
	}
	for i := range wIDs {
		if gIDs[i] != wIDs[i] {
			t.Fatalf("csrEdges[%d] mismatch", i)
		}
	}
	for i := range wStart {
		if gStart[i] != wStart[i] {
			t.Fatalf("csrStart[%d] mismatch", i)
		}
	}
}

// pathSetWith is NewPathSetOpt without a store, on a precompute pool of the
// given width.
func pathSetWith(g *graph.Graph, k int, sel PathSelector, workers int) (*PathSet, error) {
	pairs := NewPairs(g.NumVertices())
	perPair, err := computePairPaths(g, k, pairs, sel, workers)
	if err != nil {
		return nil, err
	}
	return assemblePathSet(g, k, pairs, perPair)
}

// TestNewPathSetParallelBitwise is the determinism contract of the worker
// pool: any worker count produces exactly the sequential path set.
func TestNewPathSetParallelBitwise(t *testing.T) {
	g := graph.GEANT()
	want, err := pathSetWith(g, 3, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8} {
		got, err := pathSetWith(g, 3, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		samePathSet(t, got, want)
	}
	// The public constructor, on GOMAXPROCS workers, must agree.
	legacy, err := NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, legacy, want)
}

// TestNewPathSetParallelCustomSelector runs the pool over a user-supplied
// (concurrency-safe) selector and checks worker-count independence there
// too.
func TestNewPathSetParallelCustomSelector(t *testing.T) {
	g := graph.Triangle()
	sel := func(g *graph.Graph, s, d, k int) []graph.Path {
		// Shortest path only, ignoring k: a deliberately odd selector.
		return g.KShortestPaths(s, d, 1, graph.HopWeight)
	}
	want, err := pathSetWith(g, 3, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pathSetWith(g, 3, sel, 4)
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, got, want)
	if want.NumPaths() != want.Pairs.Count() {
		t.Fatalf("custom selector should yield 1 path per pair, got %d for %d pairs",
			want.NumPaths(), want.Pairs.Count())
	}
}

// TestNewPathSetParallelDisconnected pins the deterministic error: the
// smallest unreachable pair is reported regardless of worker count.
func TestNewPathSetParallelDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 2, 1)
	want := "te: no path from 0 to 2"
	for _, workers := range []int{1, 2, 8} {
		_, err := pathSetWith(g, 3, nil, workers)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

// TestPathSetBackstop holds assemblePathSet to its four rules on a fresh
// solve: a selector that breaks one of them for pair (0,2) of the triangle,
// and answers Yen's paths for every other pair, fails the build with an
// error that names the pair.
func TestPathSetBackstop(t *testing.T) {
	g := graph.Triangle()
	for _, c := range []struct {
		name  string
		k     int
		paths []graph.Path
	}{
		{"wrong endpoints", 3, []graph.Path{{0, 1}}},
		{"revisits a vertex", 3, []graph.Path{{0, 1, 0, 2}}},
		{"listed twice", 3, []graph.Path{{0, 2}, {0, 1, 2}, {0, 2}}},
		{"more than k", 1, []graph.Path{{0, 2}, {0, 1, 2}}},
	} {
		sel := func(g *graph.Graph, s, d, k int) []graph.Path {
			if s == 0 && d == 2 {
				return c.paths
			}
			return g.KShortestPaths(s, d, k, graph.HopWeight)
		}
		_, err := pathSetWith(g, c.k, sel, 1)
		if err == nil || !strings.Contains(err.Error(), "(0,2)") {
			t.Errorf("%s: err = %v, want an error naming pair (0,2)", c.name, err)
		}
	}
	// Every pair answered with a path of the wrong pair and a walk that
	// revisits its start.
	hostile := func(*graph.Graph, int, int, int) []graph.Path {
		return []graph.Path{{0, 1}, {1, 0, 1}}
	}
	if ps, err := pathSetWith(g, 3, hostile, 1); err == nil {
		t.Errorf("hostile selector built a path set: %v", ps.Paths)
	}
}

// TestPathStoreSwappedPairsIsMiss: an entry whose first two pairs carry
// each other's path lists passes the checksum, since it was written whole,
// but not the backstop. It loads as a miss, and the next build heals it.
func TestPathStoreSwappedPairsIsMiss(t *testing.T) {
	store, err := NewPathStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GEANT()
	want, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	swapped := &PathSet{G: g, Pairs: want.Pairs, K: 3, Paths: want.Paths,
		PairPaths: append([][]int(nil), want.PairPaths...)}
	swapped.PairPaths[0], swapped.PairPaths[1] = swapped.PairPaths[1], swapped.PairPaths[0]
	if err := store.Save(swapped, SelectorYen); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(g, 3, SelectorYen); !IsPathCacheMiss(err) {
		t.Fatalf("swapped pairs: err = %v, want cache miss", err)
	}
	healed, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, healed, want)
	reloaded, err := store.Load(g, 3, SelectorYen)
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, reloaded, want)
}

func TestPathStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := NewPathStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GEANT()
	want, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store holds %d files, want 1", len(entries))
	}
	// Direct reload.
	got, err := store.Load(g, 3, SelectorYen)
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, got, want)
	if got.K != 3 {
		t.Fatalf("loaded K = %d, want 3", got.K)
	}
	// Through the constructor (cache hit path).
	hit, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, hit, want)
}

func TestPathStoreMissOnDifferentKey(t *testing.T) {
	store, err := NewPathStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GEANT()
	if _, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(g, 2, SelectorYen); !IsPathCacheMiss(err) {
		t.Fatalf("different k: err = %v, want cache miss", err)
	}
	if _, err := store.Load(g, 3, "raecke-8"); !IsPathCacheMiss(err) {
		t.Fatalf("different selector: err = %v, want cache miss", err)
	}
	other := graph.Triangle()
	if _, err := store.Load(other, 3, SelectorYen); !IsPathCacheMiss(err) {
		t.Fatalf("different topology: err = %v, want cache miss", err)
	}
}

// TestPathStoreCorruptionSelfHeals: a corrupt entry is a miss, and the next
// constructor call recomputes and overwrites it with a valid one.
func TestPathStoreCorruptionSelfHeals(t *testing.T) {
	dir := t.TempDir()
	store, err := NewPathStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GEANT()
	want, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	name := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range [][]byte{
		flipByte(data, len(data)/2), // bit rot in the middle
		data[:len(data)/3],          // truncation
		{},                          // empty file
	} {
		if err := os.WriteFile(name, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(g, 3, SelectorYen); !IsPathCacheMiss(err) {
			t.Fatalf("corrupt entry: err = %v, want cache miss", err)
		}
		healed, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		samePathSet(t, healed, want)
		// The rewrite must be valid on disk again.
		reloaded, err := store.Load(g, 3, SelectorYen)
		if err != nil {
			t.Fatal(err)
		}
		samePathSet(t, reloaded, want)
		data, err = os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xff
	return out
}

// TestPathStoreCustomSelectorUnnamed: a custom selector without a name must
// bypass the store entirely (nothing written, nothing read).
func TestPathStoreCustomSelectorUnnamed(t *testing.T) {
	dir := t.TempDir()
	store, err := NewPathStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sel := func(g *graph.Graph, s, d, k int) []graph.Path {
		return g.KShortestPaths(s, d, k, graph.HopWeight)
	}
	if _, err := NewPathSetOpt(graph.Triangle(), 3, PathSetOptions{Selector: sel, Store: store}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("unnamed selector wrote %d cache entries, want 0", len(entries))
	}
}

// TestPathStoreSaveBestEffort: an unwritable cache must not fail the
// constructor — the computed set is returned and the next run recomputes.
func TestPathStoreSaveBestEffort(t *testing.T) {
	dir := t.TempDir()
	store, err := NewPathStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	g := graph.Triangle()
	ps, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatalf("unwritable store failed the compute: %v", err)
	}
	want, err := NewPathSetOpt(g, 3, PathSetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, ps, want)
}

// sealEntry writes body plus its CRC-32 as the store entry for (g, k,
// selector), where Load will look for it.
func sealEntry(t *testing.T, st *PathStore, g *graph.Graph, k int, selector string, body []byte) {
	t.Helper()
	entry := binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
	if err := os.WriteFile(st.entryPath(g.ContentHash(), k, selector), entry, 0o644); err != nil {
		t.Fatal(err)
	}
}

// hugeSelectorBody is a 56-byte entry body (60 bytes sealed) with GEANT's
// header whose selector length reads 0x7FFFFFF5: past the end of the
// entry, and past the largest int on a 32-bit host once added to the
// offset it is read at.
func hugeSelectorBody(g *graph.Graph, k int) []byte {
	b := []byte(pathStoreMagic)
	b = binary.LittleEndian.AppendUint32(b, pathStoreVersion)
	hash := g.ContentHash()
	b = append(b, hash[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(g.NumVertices()))
	return binary.LittleEndian.AppendUint32(b, 0x7FFFFFF5)
}

// TestPathStoreHugeLengthIsMiss: a checksummed entry whose selector length
// runs past its end is a cache miss, on a 32-bit host too, where the
// length overflows the reader's offset.
func TestPathStoreHugeLengthIsMiss(t *testing.T) {
	store, err := NewPathStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GEANT()
	sealEntry(t, store, g, 3, SelectorYen, hugeSelectorBody(g, 3))
	if _, err := store.Load(g, 3, SelectorYen); !IsPathCacheMiss(err) {
		t.Fatalf("err = %v, want cache miss", err)
	}
}

// FuzzPathStoreEntry re-seals the CRC of a mutated entry body, so the bytes
// get past the checksum into the decoder and the assembly backstop. Load
// never panics: it answers a cache miss, or a set that Save writes back
// byte for byte and Load then reproduces exactly.
func FuzzPathStoreEntry(f *testing.F) {
	for _, g := range []*graph.Graph{graph.Triangle(), graph.GEANT()} {
		store, err := NewPathStore(f.TempDir())
		if err != nil {
			f.Fatal(err)
		}
		if _, err := NewPathSetOpt(g, 3, PathSetOptions{Store: store}); err != nil {
			f.Fatal(err)
		}
		entry, err := os.ReadFile(store.entryPath(g.ContentHash(), 3, SelectorYen))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(g.NumVertices() > 3, entry[:len(entry)-4])
	}
	f.Add(true, hugeSelectorBody(graph.GEANT(), 3))
	f.Fuzz(func(t *testing.T, geant bool, body []byte) {
		g := graph.Triangle()
		if geant {
			g = graph.GEANT()
		}
		store, err := NewPathStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sealEntry(t, store, g, 3, SelectorYen, body)
		ps, err := store.Load(g, 3, SelectorYen)
		if IsPathCacheMiss(err) {
			return
		}
		if err != nil {
			t.Fatalf("Load: %v, want a set or a cache miss", err)
		}
		if err := store.Save(ps, SelectorYen); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(store.entryPath(g.ContentHash(), 3, SelectorYen))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved[:len(saved)-4], body) {
			t.Fatalf("Save wrote %d body bytes, not the %d it loaded", len(saved)-4, len(body))
		}
		again, err := store.Load(g, 3, SelectorYen)
		if err != nil {
			t.Fatal(err)
		}
		samePathSet(t, again, ps)
	})
}
