package eval

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"figret/internal/baselines"
	"figret/internal/graph"
	"figret/internal/solver"
	"figret/internal/te"
	"figret/internal/traffic"
)

func setup(t *testing.T) (*te.PathSet, *traffic.Trace) {
	t.Helper()
	ps, err := te.NewPathSet(graph.FullMesh(4, 10), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.DC(traffic.PoDDB, 4, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	return ps, tr
}

func lpOracle(ps *te.PathSet) *Oracle {
	return NewOracle(ps, baselines.LPSolve, nil)
}

func gradOracle(ps *te.PathSet) *Oracle {
	return NewOracle(ps, baselines.GradSolve(solver.Options{Iters: 400}),
		baselines.GradWarmSolve(solver.Options{Iters: 120}))
}

// TestRunDeterministicAcrossWorkerCounts is the engine's core contract:
// bitwise-identical output for any worker count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ps, tr := setup(t)
	win := Window{From: 1, To: 25}
	runWith := func(workers int) *Result {
		t.Helper()
		// Fresh oracle per run so cache state cannot mask divergence.
		orc := gradOracle(ps)
		schemes := []baselines.Scheme{
			&baselines.PredTE{PS: ps, Solve: orc.CachedSolve},
			&baselines.DesTE{PS: ps, Solve: baselines.LPSolve, H: 8},
			&baselines.FixedScheme{Label: "Uniform", Cfg: te.UniformConfig(ps)},
		}
		res, err := Run(schemes, tr, win, Options{Workers: workers, Oracle: orc})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := runWith(1)
	for _, workers := range []int{2, 4, 7} {
		got := runWith(workers)
		for i := range ref.Base {
			if got.Base[i] != ref.Base[i] {
				t.Fatalf("workers=%d: base[%d] %v != %v", workers, i, got.Base[i], ref.Base[i])
			}
		}
		for si := range ref.Schemes {
			r, g := ref.Schemes[si], got.Schemes[si]
			if r.From != g.From || len(r.Raw) != len(g.Raw) {
				t.Fatalf("workers=%d: %s window mismatch", workers, r.Name)
			}
			for i := range r.Raw {
				if g.Raw[i] != r.Raw[i] || g.Norm[i] != r.Norm[i] {
					t.Fatalf("workers=%d: %s[%d] raw %v/%v norm %v/%v",
						workers, r.Name, i, g.Raw[i], r.Raw[i], g.Norm[i], r.Norm[i])
				}
			}
		}
	}
}

// TestRunAlignsWarmupWindows covers the engine fix for the legacy
// series-misalignment bug: a scheme whose warmup starts after the window
// gets a shorter series normalized against the MATCHING base entries.
func TestRunAlignsWarmupWindows(t *testing.T) {
	ps, tr := setup(t)
	orc := lpOracle(ps)
	omniLike := &baselines.Omniscient{PS: ps, Solve: orc.CachedSolve} // warmup 0
	des := &baselines.DesTE{PS: ps, Solve: baselines.LPSolve, H: 8}   // warmup 1
	res, err := Run([]baselines.Scheme{omniLike, des}, tr, Window{From: 0, To: 12},
		Options{Workers: 3, Oracle: orc})
	if err != nil {
		t.Fatal(err)
	}
	full := res.Scheme("Omniscient")
	late := res.Scheme("Des TE")
	if full.From != 0 || len(full.Raw) != 12 {
		t.Fatalf("full series misaligned: from %d len %d", full.From, len(full.Raw))
	}
	if late.From != 1 || len(late.Raw) != 11 {
		t.Fatalf("late series misaligned: from %d len %d", late.From, len(late.Raw))
	}
	// The omniscient-backed scheme must normalize to exactly 1 everywhere;
	// Des TE's entry i describes snapshot 1+i, so its normalizer is
	// Base[1+i] — verified against a direct recomputation.
	for i, v := range full.Norm {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("omniscient norm[%d] = %v, want 1", i, v)
		}
	}
	for i, v := range late.Norm {
		want := late.Raw[i] / res.Base[1+i]
		if v != want {
			t.Errorf("Des TE norm[%d] = %v, want %v (aligned base)", i, v, want)
		}
	}
	// A warmup that exhausts the window is an explicit error.
	big := &baselines.DesTE{PS: ps, Solve: baselines.LPSolve, H: 8}
	if _, err := Run([]baselines.Scheme{big}, tr, Window{From: 0, To: 1}, Options{Oracle: orc}); err == nil {
		t.Error("warmup exhausting the window accepted")
	}
}

func TestRunValidation(t *testing.T) {
	ps, tr := setup(t)
	if _, err := Run(nil, tr, Window{0, 5}, Options{}); err == nil {
		t.Error("no schemes accepted")
	}
	s := &baselines.FixedScheme{Label: "U", Cfg: te.UniformConfig(ps)}
	if _, err := Run([]baselines.Scheme{s}, tr, Window{50, 10}, Options{}); err == nil {
		t.Error("inverted window accepted")
	}
	// To beyond the trace clamps rather than failing.
	res, err := Run([]baselines.Scheme{s}, tr, Window{From: tr.Len() - 3, To: tr.Len() + 100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schemes[0].Raw) != 3 {
		t.Errorf("clamped series length %d, want 3", len(res.Schemes[0].Raw))
	}
	if res.Schemes[0].Norm != nil {
		t.Error("norm series without an oracle")
	}
}

// TestOracleCacheAccounting covers hit/miss bookkeeping and cross-view
// sharing: a trace slice shares snapshot storage with its parent, so the
// oracle computed through either is one entry.
func TestOracleCacheAccounting(t *testing.T) {
	ps, tr := setup(t)
	orc := lpOracle(ps)
	if _, err := orc.Series(tr, 10, 20, 4); err != nil {
		t.Fatal(err)
	}
	hits, misses := orc.Stats()
	if hits != 0 || misses != 10 {
		t.Fatalf("after cold series: hits %d misses %d, want 0/10", hits, misses)
	}
	if orc.Len() != 10 {
		t.Fatalf("cache holds %d entries, want 10", orc.Len())
	}
	// Same window again: all hits.
	base1, err := orc.Series(tr, 10, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = orc.Stats()
	if hits != 10 || misses != 10 {
		t.Fatalf("after warm series: hits %d misses %d, want 10/10", hits, misses)
	}
	// The same snapshots through a slice view hit the same entries.
	view := tr.Slice(5, 30)
	base2, err := orc.Series(view, 5, 15, 2) // view index 5+i = trace index 10+i
	if err != nil {
		t.Fatal(err)
	}
	hits, _ = orc.Stats()
	if hits != 20 {
		t.Fatalf("slice view missed the cache: hits %d, want 20", hits)
	}
	for i := range base1 {
		if base1[i] != base2[i] {
			t.Fatalf("view base[%d] %v != %v", i, base2[i], base1[i])
		}
	}
	// CachedSolve shares the same entries and returns mutation-safe copies.
	cfg, mlu, err := orc.CachedSolve(ps, tr.At(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mlu != base1[2] {
		t.Errorf("CachedSolve MLU %v != series %v", mlu, base1[2])
	}
	cfg.R[0] = -1
	cfg2, _, err := orc.CachedSolve(ps, tr.At(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.R[0] == -1 {
		t.Error("CachedSolve returned a shared configuration")
	}
	// Alloc contract: a warm Series is its result, its bookkeeping slice
	// and one closure — nothing per snapshot.
	if n := testing.AllocsPerRun(50, func() { orc.Series(tr, 10, 20, 1) }); n > 3 && !testing.Short() {
		t.Errorf("warm Oracle.Series: %v allocs/op, want <= 3", n)
	}
}

// TestOracleWarmStartAgreement: warm-started chains must agree with
// cold solves within tolerance on a temporally-correlated trace.
func TestOracleWarmStartAgreement(t *testing.T) {
	ps, tr := setup(t)
	cold := NewOracle(ps, baselines.GradSolve(solver.Options{Iters: 400}), nil)
	warm := gradOracle(ps)
	cb, err := cold.Series(tr, 0, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := warm.Series(tr, 0, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The exact optimum as the yardstick.
	for i := range cb {
		_, opt, err := baselines.LPSolve(ps, tr.At(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if opt <= 0 {
			continue
		}
		if wb[i] > opt*1.05+1e-9 {
			t.Errorf("warm[%d] = %v vs optimum %v (>5%%)", i, wb[i], opt)
		}
		if wb[i] > cb[i]*1.05+1e-9 {
			t.Errorf("warm[%d] = %v vs cold %v (>5%%)", i, wb[i], cb[i])
		}
	}
}

// TestOracleSeriesDuplicateSnapshotsWorkerIndependent is the regression
// test for a subtle determinism break: when the same demand content
// recurs in two different warm-start blocks, the chains race to fill one
// shared cache entry with DIFFERENT warm-seeded solves, making the
// series depend on which block ran first — i.e. on the worker count.
// Series must therefore consult only pre-call cache state while chains
// run (results are published afterwards, in ascending order).
func TestOracleSeriesDuplicateSnapshotsWorkerIndependent(t *testing.T) {
	ps, tr := setup(t)
	// Duplicate one snapshot's content across two warm-start blocks:
	// trace index 2 (block 0) and index oracleBlock+2 (block 1) share a
	// slice.
	dup := tr.At(2)
	tr.Snapshots[oracleBlock+2] = dup
	var ref []float64
	for _, workers := range []int{1, 2, 4} {
		orc := gradOracle(ps)
		base, err := orc.Series(tr, 0, 2*oracleBlock+4, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = base
			continue
		}
		for i := range ref {
			if base[i] != ref[i] {
				t.Fatalf("workers=%d: base[%d] %v != %v (duplicate-content chain race)",
					workers, i, base[i], ref[i])
			}
		}
	}
}

func TestOracleSeriesWorkerIndependent(t *testing.T) {
	ps, tr := setup(t)
	var ref []float64
	for _, workers := range []int{1, 3, 5} {
		orc := gradOracle(ps)
		base, err := orc.Series(tr, 2, 3*oracleBlock+6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = base
			continue
		}
		for i := range ref {
			if base[i] != ref[i] {
				t.Fatalf("workers=%d: base[%d] %v != %v", workers, i, base[i], ref[i])
			}
		}
	}
}

func TestOracleErrorPropagates(t *testing.T) {
	ps, tr := setup(t)
	boom := fmt.Errorf("solver exploded")
	orc := NewOracle(ps, func(*te.PathSet, []float64, []float64) (*te.Config, float64, error) {
		return nil, 0, boom
	}, nil)
	if _, err := orc.Series(tr, 0, 4, 2); err == nil {
		t.Fatal("solver error swallowed")
	}
	// The failed entry is cached; subsequent lookups return the error too.
	if _, err := orc.MLU(tr.At(0)); err == nil {
		t.Fatal("cached error lost")
	}
}

func TestParallel(t *testing.T) {
	// Every index runs exactly once, for any worker count.
	for _, workers := range []int{1, 2, 8, 100} {
		var counts [57]atomic.Int64
		err := Parallel(len(counts), workers, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	// The smallest-indexed error wins, deterministically.
	err := Parallel(20, 8, func(i int) error {
		if i == 7 || i == 13 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 7" {
		t.Fatalf("got %v, want fail 7", err)
	}
	if err := Parallel(0, 4, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatal("empty Parallel errored")
	}
}

func TestSummarize(t *testing.T) {
	st, severe := Summarize([]float64{1, 2, 3, 4})
	if st.Mean != 2.5 || st.Median != 2.5 || st.Min != 1 || st.Max != 4 {
		t.Errorf("candlestick %+v, want mean and median 2.5 over [1, 4]", st)
	}
	// Severe is strictly above the threshold: 2 itself does not count.
	if severe != 0.5 {
		t.Errorf("severe share = %v, want 0.5 (3 and 4 of four)", severe)
	}
}
