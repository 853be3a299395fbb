// Package eval is the shared evaluation engine behind every experiment:
// a worker pool evaluates (scheme × snapshot) cells in parallel, an
// Oracle memoizes and warm-starts the omniscient solves that normalize
// every result, and Run assembles per-scheme raw and normalized MLU
// series with candlestick statistics and severe-congestion rates.
//
// Determinism contract: Run's output is bitwise identical for every
// worker count. Three properties make that hold — (1) every cell's value
// is a pure function of (scheme, trace, snapshot), required of Scheme
// implementations (see baselines.Scheme's concurrency contract); (2) cell
// results land in preallocated slots indexed by (scheme, snapshot), so
// scheduling order never reorders output; (3) the oracle base is computed
// before scheme cells run, in warm-start chains whose block boundaries
// are anchored to the evaluation window rather than to the worker layout.
package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"figret/internal/baselines"
	"figret/internal/traffic"
)

// Window is a half-open snapshot range [From, To) of a trace. To is
// clamped to the trace length by Run.
type Window struct {
	From, To int
}

// Options configures Run.
type Options struct {
	// Workers is the size of the evaluation worker pool; <= 0 selects
	// runtime.GOMAXPROCS(0). Results are bitwise identical for any value.
	Workers int
	// Oracle normalizes the series. Nil evaluates raw MLUs only (Norm is
	// nil and statistics are computed over Raw).
	Oracle *Oracle
}

// severeThreshold is the normalized-MLU bound above which a snapshot
// counts as a severe-congestion incident (the paper's criterion).
const severeThreshold = 2

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// SchemeSeries is one scheme's evaluation over its aligned window.
type SchemeSeries struct {
	Name string
	// From is the first evaluated snapshot: the window start, pushed to
	// the scheme's warmup when that is later. Raw[i] and Norm[i] describe
	// snapshot From+i.
	From int
	// Raw is the scheme's MLU per snapshot of [From, To).
	Raw []float64
	// Norm is Raw normalized by the omniscient base at the matching
	// snapshots (nil when Run had no oracle).
	Norm []float64
	// Stats summarizes Norm (or Raw without an oracle); Stats.Mean is the
	// scheme's average.
	Stats traffic.Candlestick
	// SevereCongestion is the fraction of snapshots whose normalized MLU
	// exceeds the severe threshold (0 without an oracle).
	SevereCongestion float64
}

// Result is the output of one Run.
type Result struct {
	// From, To is the clamped evaluation window.
	From, To int
	// Base is the omniscient MLU per snapshot of [From, To); nil when Run
	// had no oracle.
	Base []float64
	// Schemes holds one series per input scheme, in input order.
	Schemes []SchemeSeries
}

// Scheme returns the named series, or nil.
func (r *Result) Scheme(name string) *SchemeSeries {
	for i := range r.Schemes {
		if r.Schemes[i].Name == name {
			return &r.Schemes[i]
		}
	}
	return nil
}

// Run evaluates every scheme over the snapshots of win, normalizes by the
// oracle base, and summarizes. Schemes whose warmup starts after win.From
// are aligned explicitly: their series begin at the warmup index (recorded
// in SchemeSeries.From) and normalize against the matching base entries —
// never index-shifted. A scheme whose warmup leaves no snapshot in the
// window is an error.
func Run(schemes []baselines.Scheme, tr *traffic.Trace, win Window, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(schemes) == 0 {
		return nil, fmt.Errorf("eval: no schemes")
	}
	from, to := win.From, win.To
	if to > tr.Len() {
		to = tr.Len()
	}
	if from < 0 || from >= to {
		return nil, fmt.Errorf("eval: empty evaluation window [%d,%d) (trace length %d)", from, to, tr.Len())
	}

	res := &Result{From: from, To: to, Schemes: make([]SchemeSeries, len(schemes))}
	for si, s := range schemes {
		sFrom := from
		if w := s.Warmup(); w > sFrom {
			sFrom = w
		}
		if sFrom >= to {
			return nil, fmt.Errorf("eval: %s warmup %d leaves no snapshot in window [%d,%d)", s.Name(), s.Warmup(), from, to)
		}
		res.Schemes[si] = SchemeSeries{
			Name: s.Name(),
			From: sFrom,
			Raw:  make([]float64, to-sFrom),
		}
	}

	// Phase 1: the oracle base, before any scheme cell runs — scheme
	// solves that consult the oracle cache (Oracle.CachedSolve) then see a
	// fully-populated window regardless of scheduling.
	if opt.Oracle != nil {
		base, err := opt.Oracle.Series(tr, from, to, opt.Workers)
		if err != nil {
			return nil, err
		}
		res.Base = base
	}

	// Phase 2: (scheme × snapshot) cells on the worker pool.
	type cell struct{ si, t int }
	var cells []cell
	for si := range res.Schemes {
		for t := res.Schemes[si].From; t < to; t++ {
			cells = append(cells, cell{si, t})
		}
	}
	err := Parallel(len(cells), opt.Workers, func(i int) error {
		c := cells[i]
		s := schemes[c.si]
		cfg, err := s.Advise(tr, c.t)
		if err != nil {
			return fmt.Errorf("eval: %s at t=%d: %w", s.Name(), c.t, err)
		}
		res.Schemes[c.si].Raw[c.t-res.Schemes[c.si].From] = cfg.MLU(tr.At(c.t))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: aligned normalization and summary statistics.
	for si := range res.Schemes {
		ss := &res.Schemes[si]
		if res.Base == nil {
			ss.Stats = traffic.Summarize(ss.Raw)
		} else {
			ss.Norm = baselines.Normalize(ss.Raw, res.Base[ss.From-from:])
			ss.Stats, ss.SevereCongestion = Summarize(ss.Norm)
		}
	}
	return res, nil
}

// Summarize is the summary every normalized-MLU table reports: the
// candlestick of xs (its Mean included) and the fraction of entries above
// the severe-congestion threshold — normalized MLU > 2, the paper's
// congestion-incident criterion. xs must be non-empty.
func Summarize(xs []float64) (st traffic.Candlestick, severe float64) {
	n := 0
	for _, v := range xs {
		if v > severeThreshold {
			n++
		}
	}
	return traffic.Summarize(xs), float64(n) / float64(len(xs))
}

// Parallel runs fn(i) for every i in [0, n) on up to workers goroutines
// (<= 0 selects runtime.GOMAXPROCS(0)) and returns the error of the
// smallest-indexed failing call. A failure cancels the pool: indices not
// yet claimed are skipped, so a scheme erroring on its first cell does
// not pay for the hundreds of remaining ones. Because indices are
// claimed in strictly ascending order, every index smaller than a
// failing one has already been claimed and runs to completion — the
// globally smallest failing index is therefore always among the
// completed calls, and the returned error is deterministic. fn must
// confine its writes to caller-owned storage for index i; under that
// discipline output is identical for any worker count. It is the
// engine's worker-pool primitive, exported for experiments whose cell
// structure is richer than (scheme × snapshot) — e.g. the failure
// study's (failure-set × snapshot) grid.
func Parallel(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The failure check must precede the claim: indices are
				// claimed in ascending order, so a failure at index j can
				// only be observed by workers that have not yet claimed
				// their next (larger) index — every claimed index runs to
				// completion, which is what makes the smallest failing
				// index deterministic.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
