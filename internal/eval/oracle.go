package eval

import (
	"fmt"
	"math"
	"sync"

	"figret/internal/baselines"
	"figret/internal/te"
	"figret/internal/traffic"
)

// Oracle is a memoized optimal-TE solver: the optimal-MLU solve for a
// demand matrix is computed once per process and shared by everything
// that needs it — the omniscient normalization base of every experiment,
// every scheme whose advice is an optimal solve of some matrix (PredTE's
// advice for snapshot t is exactly the omniscient solve of snapshot t-1;
// Des TE's advice is a capped solve of a window peak matrix), and
// repeated experiment runs over the same trace.
//
// Entries are content-addressed: two demand slices with equal entries
// share one solve, wherever they were allocated (trace views, recomputed
// peak matrices, repeated runs). Hash collisions are chained and resolved
// by exact comparison, so a hit is always the solve of the identical
// problem. Capped solves are cached too, keyed by (demand, caps) content;
// neither demands nor caps may be mutated after a solve.
//
// When Warm is set, Series solves temporally-adjacent snapshots as
// warm-started chains: each snapshot's solve is seeded with the previous
// snapshot's optimal split ratios and runs far fewer iterations. Chains
// are bounded to oracleBlock snapshots and anchored to the requested
// window, so a Series result depends only on the window and the cache
// contents — never on how many workers computed it.
type Oracle struct {
	PS *te.PathSet
	// Solve is the cold solve (exact LP or full-budget gradient solve).
	Solve baselines.SolveFunc
	// Warm, if non-nil, is the reduced-budget warm-started solve used
	// inside Series chains. Nil disables warm starts (appropriate for the
	// exact LP, which has nothing to warm).
	Warm baselines.WarmSolveFunc

	mu     sync.Mutex
	cache  map[solveKey][]*oracleEntry
	hits   uint64
	misses uint64
}

// NewOracle returns an oracle over ps backed by the given cold solve and
// optional warm-started solve.
func NewOracle(ps *te.PathSet, solve baselines.SolveFunc, warm baselines.WarmSolveFunc) *Oracle {
	return &Oracle{PS: ps, Solve: solve, Warm: warm}
}

// solveKey buckets cache entries by a content hash of the demand and caps
// vectors (caps nil for the uncapped omniscient solves). Buckets chain
// entries compared by exact content equality, so collisions cannot
// corrupt results and equal problems share one solve no matter where
// their slices were allocated.
type solveKey struct {
	hash   uint64
	n      int
	capped bool
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFloats(h uint64, xs []float64) uint64 {
	for _, v := range xs {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

func makeKey(d, caps []float64) solveKey {
	h := fnvFloats(fnvOffset64, d)
	if caps != nil {
		h = fnvFloats(h, caps)
	}
	return solveKey{hash: h, n: len(d), capped: caps != nil}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleEntry is a single-flight cache slot: the first goroutine to claim
// a key computes it and closes done; everyone else waits.
type oracleEntry struct {
	d    []float64 // the problem this entry answers (exact-match chain)
	caps []float64
	done chan struct{}
	r    []float64 // optimal split ratios (seed for warm starts)
	mlu  float64
	err  error
}

// Stats returns the cache hit/miss counters.
func (o *Oracle) Stats() (hits, misses uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits, o.misses
}

// Len returns the number of cached solves.
func (o *Oracle) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	//figret:allow(detrange) integer count over all chains; addition is order-independent
	for _, chain := range o.cache {
		n += len(chain)
	}
	return n
}

// claim returns the cache slot for (d, caps) and whether the caller owns
// the computation (single flight: exactly one claimer per slot computes).
func (o *Oracle) claim(d, caps []float64) (*oracleEntry, bool) {
	k := makeKey(d, caps)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cache == nil {
		o.cache = make(map[solveKey][]*oracleEntry)
	}
	for _, e := range o.cache[k] {
		if equalFloats(e.d, d) && equalFloats(e.caps, caps) {
			o.hits++
			return e, false
		}
	}
	o.misses++
	e := &oracleEntry{d: d, caps: caps, done: make(chan struct{})}
	o.cache[k] = append(o.cache[k], e)
	return e, true
}

// fill completes a claimed entry.
func (e *oracleEntry) fill(cfg *te.Config, mlu float64, err error) {
	if err == nil {
		e.r = append([]float64(nil), cfg.R...)
		e.mlu = mlu
	}
	e.err = err
	close(e.done)
}

// solve returns the memoized entry for (d, caps), computing it cold on a
// cache miss. Cold solves are pure functions of the problem, so the entry
// value is independent of which goroutine computes it.
func (o *Oracle) solve(d, caps []float64) *oracleEntry {
	e, owned := o.claim(d, caps)
	if !owned {
		<-e.done
		return e
	}
	cfg, mlu, err := o.Solve(o.PS, d, caps)
	e.fill(cfg, mlu, err)
	return e
}

// peek returns the ready cache entry for (d, caps) if one exists, nil
// otherwise, updating the hit/miss counters. Unlike claim it never
// inserts: Series uses it so concurrent chains see only pre-call cache
// state, keeping warm-started results worker-count independent.
func (o *Oracle) peek(d, caps []float64) *oracleEntry {
	k := makeKey(d, caps)
	o.mu.Lock()
	for _, e := range o.cache[k] {
		if equalFloats(e.d, d) && equalFloats(e.caps, caps) {
			o.hits++
			o.mu.Unlock()
			<-e.done
			return e
		}
	}
	o.misses++
	o.mu.Unlock()
	return nil
}

// publish inserts an externally-computed solve unless an equal problem is
// already cached (first writer wins; counters untouched — the lookup was
// already accounted by peek).
func (o *Oracle) publish(d []float64, r []float64, mlu float64, err error) {
	k := makeKey(d, nil)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cache == nil {
		o.cache = make(map[solveKey][]*oracleEntry)
	}
	for _, e := range o.cache[k] {
		if equalFloats(e.d, d) {
			return
		}
	}
	e := &oracleEntry{d: d, r: r, mlu: mlu, err: err, done: make(chan struct{})}
	close(e.done)
	o.cache[k] = append(o.cache[k], e)
}

// MLU returns the memoized optimal MLU for demand d (cold solve on miss).
func (o *Oracle) MLU(d []float64) (float64, error) {
	e := o.solve(d, nil)
	return e.mlu, e.err
}

// CachedSolve is a baselines.SolveFunc backed by the cache. Passing it as
// a scheme's Solve lets the scheme reuse oracle work: PredTE built on
// CachedSolve costs nothing on snapshots the oracle base has covered, and
// Des TE's capped peak-matrix solves are shared across repeated runs. The
// returned configuration is a fresh copy; callers may mutate it freely.
func (o *Oracle) CachedSolve(ps *te.PathSet, d, caps []float64) (*te.Config, float64, error) {
	if ps != o.PS || len(d) == 0 {
		return o.Solve(ps, d, caps)
	}
	e := o.solve(d, caps)
	if e.err != nil {
		return nil, 0, e.err
	}
	cfg := te.NewConfig(o.PS)
	copy(cfg.R, e.r)
	return cfg, e.mlu, nil
}

// oracleBlock bounds each warm-start chain of Series. Block boundaries are
// anchored at the window start, so results are independent of the worker
// count.
const oracleBlock = 16

// Series returns the optimal MLU for snapshots [from, to) of tr, filling
// the cache. Uncached snapshots are solved in warm-started chains of up to
// oracleBlock snapshots; chains run in parallel on up to workers goroutines.
// For a fixed window and cache state the result is bitwise identical for
// any worker count: block boundaries are anchored at from, snapshots
// within a block are solved strictly in trace order, and chains consult
// only cache state from before the call — a warm-started result computed
// by one chain is never visible to a concurrently-running chain (it is
// published afterwards, in ascending trace order), so even a demand
// matrix recurring at several positions cannot make one chain's seed
// depend on another chain's progress.
func (o *Oracle) Series(tr *traffic.Trace, from, to, workers int) ([]float64, error) {
	if from < 0 || to > tr.Len() || from >= to {
		return nil, fmt.Errorf("eval: oracle window [%d,%d) invalid for trace length %d", from, to, tr.Len())
	}
	out := make([]float64, to-from)
	// computed[i] holds the ratios of a solve performed by this call
	// (nil where the cache already answered).
	computed := make([][]float64, to-from)
	nBlocks := (to - from + oracleBlock - 1) / oracleBlock
	err := Parallel(nBlocks, workers, func(bi int) error {
		lo := from + bi*oracleBlock
		hi := lo + oracleBlock
		if hi > to {
			hi = to
		}
		var prev []float64 // previous snapshot's optimum within this chain
		for t := lo; t < hi; t++ {
			d := tr.At(t)
			if e := o.peek(d, nil); e != nil {
				if e.err != nil {
					return fmt.Errorf("eval: oracle at t=%d: %w", t, e.err)
				}
				out[t-from] = e.mlu
				prev = e.r
				continue
			}
			var cfg *te.Config
			var mlu float64
			var err error
			if prev != nil && o.Warm != nil {
				cfg, mlu, err = o.Warm(o.PS, d, prev)
			} else {
				cfg, mlu, err = o.Solve(o.PS, d, nil)
			}
			if err != nil {
				return fmt.Errorf("eval: oracle at t=%d: %w", t, err)
			}
			r := append([]float64(nil), cfg.R...)
			out[t-from] = mlu
			computed[t-from] = r
			prev = r
		}
		return nil
	})
	// Publish this call's solves in ascending trace order (deterministic
	// first-writer-wins for recurring demand contents) even on error, so
	// completed work is not lost.
	for i, r := range computed {
		if r != nil {
			o.publish(tr.At(from+i), r, out[i], nil)
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
