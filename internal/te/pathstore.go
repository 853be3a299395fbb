package te

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"figret/internal/graph"
)

// Process-wide path-cache counters, aggregated across every PathStore
// (stores are created ad hoc — experiments.NewEnv, cmd/served — and not
// retained, so per-store counters would be unreachable by the time a
// metrics scrape wants them).
var pathCacheHits, pathCacheMisses atomic.Uint64

// PathCacheStats returns the process-wide PathStore load totals: hits
// are Loads that returned a usable entry, misses are Loads that found
// the entry absent, corrupt or keyed differently (the recomputation
// path). Monotonic; safe for concurrent use.
func PathCacheStats() (hits, misses uint64) {
	return pathCacheHits.Load(), pathCacheMisses.Load()
}

// PathStore is a versioned on-disk cache of candidate-path precomputations,
// content-addressed by (topology content hash, k, selector name): every
// process serving, training on or evaluating the same topology shares one
// Yen precomputation instead of each paying the full n² solve at startup.
//
// Entries are standalone binary files (one per key) under the store
// directory, written atomically (temp file + rename) in the checksummed
// format documented in DESIGN.md §8: a magic/version header, the full
// address key, the per-pair vertex sequences of every candidate path, and a
// trailing CRC-32 over everything before it. Load rebuilds the PathSet
// through the same assembly path as a fresh computation — the CSR and the
// path capacities are re-derived from the live graph, never trusted from
// disk — so a loaded set is bitwise identical to the computed one
// (TestPathStoreRoundTrip, FuzzPathStoreEntry). Any mismatch (truncation, bit rot, foreign format, stale version,
// different topology/k/selector) surfaces as a cache miss, and
// NewPathSetOpt then recomputes and overwrites the entry.
//
// A PathStore is safe for concurrent use by multiple processes: writers
// never publish partial files, and readers fully validate whatever they
// find.
type PathStore struct {
	dir string
}

// NewPathStore opens (creating if needed) a path cache rooted at dir.
func NewPathStore(dir string) (*PathStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("te: path store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("te: path store: %w", err)
	}
	return &PathStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *PathStore) Dir() string { return st.dir }

// pathCacheMissError reports that a store lookup found no usable entry; the
// reason distinguishes absent, corrupt and mismatched files for logging.
type pathCacheMissError struct{ reason string }

func (e *pathCacheMissError) Error() string {
	return "te: path cache miss: " + e.reason
}

// IsPathCacheMiss reports whether err is a PathStore cache miss (entry
// absent, corrupt, or keyed to a different topology/k/selector) — the
// recoverable outcome NewPathSetOpt responds to by computing fresh.
func IsPathCacheMiss(err error) bool {
	_, ok := err.(*pathCacheMissError)
	return ok
}

// On-disk format constants.
const (
	pathStoreMagic   = "FIGPATHS"
	pathStoreVersion = 1
)

// entryPath returns the file name for a key: a hex digest over the full
// address, so distinct (topology, k, selector) triples never collide on one
// file and the directory stays flat.
func (st *PathStore) entryPath(topoHash [sha256.Size]byte, k int, selector string) string {
	h := sha256.New()
	h.Write(topoHash[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(k))
	h.Write(buf[:])
	h.Write([]byte(selector))
	sum := h.Sum(nil)
	return filepath.Join(st.dir, "paths-"+hex.EncodeToString(sum[:16])+".bin")
}

// Save persists ps under (ps.G content hash, ps.K, selector), atomically
// replacing any existing entry for the key.
func (st *PathStore) Save(ps *PathSet, selector string) error {
	if ps.K <= 0 {
		return fmt.Errorf("te: path store: path set has no k recorded")
	}
	if selector == "" {
		return fmt.Errorf("te: path store: empty selector name")
	}
	topoHash := ps.G.ContentHash()

	var payload bytes.Buffer
	payload.WriteString(pathStoreMagic)
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		payload.Write(b[:])
	}
	writeU32(pathStoreVersion)
	payload.Write(topoHash[:])
	writeU32(uint32(ps.K))
	writeU32(uint32(ps.G.NumVertices()))
	writeU32(uint32(len(selector)))
	payload.WriteString(selector)
	writeU32(uint32(ps.Pairs.Count()))
	for _, pp := range ps.PairPaths {
		writeU32(uint32(len(pp)))
		for _, p := range pp {
			path := ps.Paths[p]
			writeU32(uint32(len(path)))
			for _, v := range path {
				writeU32(uint32(v))
			}
		}
	}
	writeU32(crc32.ChecksumIEEE(payload.Bytes()))

	dst := st.entryPath(topoHash, ps.K, selector)
	tmp, err := os.CreateTemp(st.dir, "paths-*.tmp")
	if err != nil {
		return fmt.Errorf("te: path store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(payload.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("te: path store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("te: path store: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("te: path store: %w", err)
	}
	return nil
}

// Load reloads the cached path set for (g, k, selector). It returns a
// pathCacheMissError (see IsPathCacheMiss) when no valid entry exists; any
// other error is an I/O fault. On success the returned PathSet is bitwise
// identical to computing it fresh on g.
func (st *PathStore) Load(g *graph.Graph, k int, selector string) (*PathSet, error) {
	topoHash := g.ContentHash()
	data, err := os.ReadFile(st.entryPath(topoHash, k, selector))
	if os.IsNotExist(err) {
		pathCacheMisses.Add(1)
		return nil, &pathCacheMissError{reason: "no entry"}
	}
	if err != nil {
		return nil, fmt.Errorf("te: path store: %w", err)
	}
	perPair, err := decodePathStoreEntry(data, topoHash, k, g.NumVertices(), selector)
	if err != nil {
		pathCacheMisses.Add(1)
		return nil, err
	}
	ps, err := assemblePathSet(g, k, NewPairs(g.NumVertices()), perPair)
	if err != nil {
		// Paths that no longer exist in g mean the entry belongs to a
		// different (hash-colliding or hand-edited) topology: a miss, not
		// a fault.
		pathCacheMisses.Add(1)
		return nil, &pathCacheMissError{reason: err.Error()}
	}
	pathCacheHits.Add(1)
	return ps, nil
}

// decodePathStoreEntry validates an entry's framing, checksum and address
// key against the expected values and returns the per-pair vertex paths.
func decodePathStoreEntry(data []byte, topoHash [sha256.Size]byte, k, n int, selector string) ([][]graph.Path, error) {
	miss := func(format string, args ...interface{}) ([][]graph.Path, error) {
		return nil, &pathCacheMissError{reason: fmt.Sprintf(format, args...)}
	}
	// Checksum first: everything else assumes intact bytes.
	if len(data) < len(pathStoreMagic)+4 {
		return miss("truncated entry (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return miss("checksum mismatch")
	}
	r := &byteReader{data: body}
	if string(r.bytes(len(pathStoreMagic))) != pathStoreMagic {
		return miss("bad magic")
	}
	if v := r.u32(); v != pathStoreVersion {
		return miss("format version %d, want %d", v, pathStoreVersion)
	}
	var gotHash [sha256.Size]byte
	copy(gotHash[:], r.bytes(sha256.Size))
	if gotHash != topoHash {
		return miss("topology hash mismatch")
	}
	if gotK := int(r.u32()); gotK != k {
		return miss("k=%d, want %d", gotK, k)
	}
	if gotN := int(r.u32()); gotN != n {
		return miss("%d vertices, want %d", gotN, n)
	}
	if got := string(r.bytes(int(r.u32()))); got != selector {
		return miss("selector %q, want %q", got, selector)
	}
	pairs := NewPairs(n)
	if gotPairs := int(r.u32()); gotPairs != pairs.Count() {
		return miss("%d pairs, want %d", gotPairs, pairs.Count())
	}
	perPair := make([][]graph.Path, pairs.Count())
	for pi := range perPair {
		np := int(r.u32())
		if np <= 0 || np > k || r.failed {
			return miss("pair %d has %d paths", pi, np)
		}
		cand := make([]graph.Path, np)
		for i := range cand {
			plen := int(r.u32())
			if plen < 2 || plen > n || r.failed {
				return miss("pair %d path %d has length %d", pi, i, plen)
			}
			p := make(graph.Path, plen)
			for j := range p {
				v := int(r.u32())
				if v < 0 || v >= n {
					return miss("pair %d path %d visits vertex %d", pi, i, v)
				}
				p[j] = v
			}
			cand[i] = p
		}
		perPair[pi] = cand
	}
	if r.failed || r.off != len(body) {
		return miss("trailing or missing bytes")
	}
	return perPair, nil
}

// byteReader is a bounds-checked little-endian cursor; out-of-range reads
// set failed and return zeros instead of panicking, so decode loops can
// validate once per record.
type byteReader struct {
	data   []byte
	off    int
	failed bool
}

func (r *byteReader) bytes(n int) []byte {
	// n > len-off, not off+n > len: on a 32-bit host a length read from
	// the file can overflow off+n (TestPathStoreHugeLengthIsMiss).
	if n < 0 || n > len(r.data)-r.off {
		r.failed = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
