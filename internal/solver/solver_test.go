package solver

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"figret/internal/graph"
	"figret/internal/lp"
	"figret/internal/te"
)

func geantSetup(t *testing.T) (*te.PathSet, []float64) {
	t.Helper()
	ps, err := te.NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = rng.Float64() * 2
	}
	return ps, d
}

func TestSolverMatchesLPOnTriangle(t *testing.T) {
	ps, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	_, lpObj, err := lp.MLUMin(ps, d)
	if err != nil {
		t.Fatal(err)
	}
	cfg, obj := MinimizeMLU(ps, d, Options{})
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if obj > lpObj*1.02+1e-9 {
		t.Errorf("solver MLU %v vs LP %v (>2%% gap)", obj, lpObj)
	}
}

func TestSolverMatchesLPOnGEANT(t *testing.T) {
	ps, d := geantSetup(t)
	_, lpObj, err := lp.MLUMin(ps, d)
	if err != nil {
		t.Fatal(err)
	}
	cfg, obj := MinimizeMLU(ps, d, Options{Iters: 800})
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if obj > lpObj*1.05+1e-9 {
		t.Errorf("solver MLU %v vs LP %v (>5%% gap)", obj, lpObj)
	}
	if obj < lpObj-1e-7 {
		t.Errorf("solver MLU %v beat the LP optimum %v — LP must be wrong", obj, lpObj)
	}
}

func TestSolverRespectsCaps(t *testing.T) {
	ps, d := geantSetup(t)
	caps := lp.SensitivityCaps(ps, lp.ConstantF(0.4))
	cfg, _ := MinimizeMLU(ps, d, Options{Iters: 500, Caps: caps})
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for p, r := range cfg.R {
		if math.IsInf(caps[p], 1) {
			continue
		}
		if r > caps[p]+1e-6 {
			t.Errorf("path %d ratio %v exceeds cap %v", p, r, caps[p])
		}
	}
}

func TestSolverZeroDemand(t *testing.T) {
	ps, _ := geantSetup(t)
	d := make([]float64, ps.Pairs.Count())
	cfg, obj := MinimizeMLU(ps, d, Options{Iters: 5})
	if obj != 0 {
		t.Errorf("zero-demand MLU = %v", obj)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolverDeterministic(t *testing.T) {
	ps, d := geantSetup(t)
	a, objA := MinimizeMLU(ps, d, Options{Iters: 100, Seed: 3})
	b, objB := MinimizeMLU(ps, d, Options{Iters: 100, Seed: 3})
	if objA != objB {
		t.Fatalf("objectives differ: %v vs %v", objA, objB)
	}
	for i := range a.R {
		if a.R[i] != b.R[i] {
			t.Fatal("ratios differ across identical runs")
		}
	}
}

func TestSolverWarmStart(t *testing.T) {
	ps, d := geantSetup(t)
	cold, _ := MinimizeMLU(ps, d, Options{Iters: 400})
	// A correlated demand: small multiplicative drift from d.
	d2 := make([]float64, len(d))
	for i, v := range d {
		d2[i] = v * (1 + 0.05*math.Sin(float64(i)))
	}
	_, cold2 := MinimizeMLU(ps, d2, Options{Iters: 400})
	// Warm-starting from the neighbor's optimum with a quarter of the
	// iterations must land within a few percent of the cold solve.
	warmCfg, warm2 := MinimizeMLU(ps, d2, Options{Iters: 100, InitR: cold.R})
	if err := warmCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if warm2 > cold2*1.05+1e-9 {
		t.Errorf("warm solve %v vs cold %v (>5%% gap)", warm2, cold2)
	}
	// Best-iterate tracking: the warm solve can never be worse than the
	// seed itself evaluated on the new demand.
	seedMLU, _ := ps.MLU(d2, cold.R)
	if warm2 > seedMLU+1e-9 {
		t.Errorf("warm solve %v worse than its own seed %v", warm2, seedMLU)
	}
	// Warm starts are deterministic and honored exactly at iteration 0:
	// two identical warm solves agree bitwise.
	a, objA := MinimizeMLU(ps, d2, Options{Iters: 50, InitR: cold.R})
	b, objB := MinimizeMLU(ps, d2, Options{Iters: 50, InitR: cold.R})
	if objA != objB {
		t.Fatalf("warm objectives differ: %v vs %v", objA, objB)
	}
	for i := range a.R {
		if a.R[i] != b.R[i] {
			t.Fatal("warm ratios differ across identical runs")
		}
	}
}

func TestSolverImprovesOverIterations(t *testing.T) {
	ps, d := geantSetup(t)
	_, few := MinimizeMLU(ps, d, Options{Iters: 10})
	_, many := MinimizeMLU(ps, d, Options{Iters: 600})
	if many > few+1e-9 {
		t.Errorf("more iterations worsened MLU: %v -> %v", few, many)
	}
}

func TestProjectCapsExact(t *testing.T) {
	ps, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := te.NewConfig(ps) // all mass on direct paths
	caps := make([]float64, ps.NumPaths())
	for p := range caps {
		caps[p] = 0.6
	}
	projectCaps(ps, cfg, caps)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for p, r := range cfg.R {
		if r > caps[p]+1e-9 {
			t.Errorf("path %d ratio %v exceeds cap after projection", p, r)
		}
	}
}

func TestSoftmaxPerPair(t *testing.T) {
	ps, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	P := ps.NumPaths()
	z := make([]float64, P+1)
	r := make([]float64, P+1)
	z[P] = math.Inf(-1)
	pairs := newPairQuads(ps)
	pairs.softmax(z, r)
	for _, pp := range ps.PairPaths {
		sum := 0.0
		for _, p := range pp {
			if math.Abs(r[p]-0.5) > 1e-12 {
				t.Errorf("uniform logits should give 0.5, got %v", r[p])
			}
			sum += r[p]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("pair softmax sums to %v", sum)
		}
	}
	// Extreme logits must not overflow.
	for i := range P {
		z[i] = 1e4 * float64(i%3)
	}
	pairs.softmax(z, r)
	for _, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflow")
		}
	}
}

// TestMinimizeMLURejectsBadOptions: a negative Iters would skip the loop
// and return the all-zero routing with MLU 0, a negative LR would ascend,
// and a NaN or +Inf LR, a NaN or ±Inf demand or warm start, or a −Inf cap,
// would return an all-NaN routing that MLUFromFlows scores 0. A negative cap would come
// back as a negative split ratio and a NaN cap would uncap its path.
// Wrong lengths index out of range or cap a prefix. Each panics up front
// with the package's own message.
func TestMinimizeMLURejectsBadOptions(t *testing.T) {
	ps, d := geantSetup(t)
	P := ps.NumPaths()
	with := func(i int, v float64) []float64 {
		x := append([]float64(nil), d...)
		x[i] = v
		return x
	}
	initR := func(i int, v float64) []float64 {
		r := te.UniformConfig(ps).R
		r[i] = v
		return r
	}
	capped := func(v float64) []float64 {
		c := make([]float64, P)
		for p := range c {
			c[p] = math.Inf(1)
		}
		c[0] = v
		return c
	}
	for _, c := range []struct {
		name string
		d    []float64
		opt  Options
	}{
		{"negative Iters", d, Options{Iters: -1}},
		{"negative LR", d, Options{LR: -0.05}},
		{"both negative", d, Options{Iters: -400, LR: -1}},
		{"NaN LR", d, Options{Iters: 50, LR: math.NaN()}},
		{"+Inf LR", d, Options{Iters: 50, LR: math.Inf(1)}},
		{"NaN demand", with(5, math.NaN()), Options{Iters: 20}},
		{"+Inf demand", with(5, math.Inf(1)), Options{Iters: 20}},
		{"-Inf demand", with(0, math.Inf(-1)), Options{Iters: 20}},
		{"short demand", d[:len(d)-1], Options{Iters: 20}},
		{"long demand", append(append([]float64(nil), d...), 1), Options{Iters: 20}},
		{"NaN InitR", d, Options{Iters: 20, InitR: initR(3, math.NaN())}},
		{"+Inf InitR", d, Options{Iters: 20, InitR: initR(3, math.Inf(1))}},
		{"short InitR", d, Options{Iters: 20, InitR: make([]float64, P-1)}},
		{"short Caps", d, Options{Iters: 20, Caps: make([]float64, P-1)}},
		{"long Caps", d, Options{Iters: 20, Caps: make([]float64, P+1)}},
		{"-Inf cap", d, Options{Iters: 50, Caps: capped(math.Inf(-1))}},
		{"negative cap", d, Options{Iters: 50, Caps: capped(-0.5)}},
		{"NaN cap", d, Options{Iters: 50, Caps: capped(math.NaN())}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "solver: ") {
					t.Errorf("%s: recovered %q, want a solver: panic", c.name, msg)
				}
			}()
			MinimizeMLU(ps, c.d, c.opt)
		}()
	}
	// Negative demand stays allowed, and so do caps of ±0 and +Inf.
	if _, m := MinimizeMLU(ps, with(5, -1), Options{Iters: 20}); math.IsNaN(m) {
		t.Errorf("negative demand: MLU %v", m)
	}
	for _, c := range []float64{0, math.Copysign(0, -1), math.Inf(1)} {
		if cfg, m := MinimizeMLU(ps, d, Options{Iters: 20, Caps: capped(c)}); !(m > 0) || cfg.R[0] != 0 && c == 0 {
			t.Errorf("cap %v: MLU %v, R[0] = %v", c, m, cfg.R[0])
		}
	}
}

// ladder is a 2×n ladder: two rails of n nodes with a rung at every
// position, links both ways. Its corner-to-corner paths run n edges and
// more, so K-path sets on it have long paths of unequal lengths, which
// today's named topologies (at most 6 edges) never produce.
func ladder(n int) *graph.Graph {
	g := graph.New(2 * n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, n+i, 5)
		g.MustAddEdge(n+i, i, 5)
		if i+1 < n {
			g.MustAddEdge(i, i+1, 10)
			g.MustAddEdge(i+1, i, 10)
			g.MustAddEdge(n+i, n+i+1, 8)
			g.MustAddEdge(n+i+1, n+i, 8)
		}
	}
	return g
}

// padded is a 6-node directed ring with chords 0→2, 0→3 and 0→4: 9 edges
// and 30 pairs, neither a multiple of four. At K = 3 its first pair quad
// holds pairs of 1, 2, 3 and 3 paths (0→1 .. 0→4), and its last quad two
// pairs and two lanes of padding.
func padded() *graph.Graph {
	g := graph.New(6)
	for v := 0; v < 6; v++ {
		g.MustAddEdge(v, (v+1)%6, float64(4+v%3))
	}
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(0, 3, 2)
	g.MustAddEdge(0, 4, 5)
	return g
}

// TestMinimizeMLUMatchesScalarReference holds MinimizeMLU, whose
// exponentials go through nn.ExpInto, whose optimizer is nn.Adam and whose
// incidence walks are the four-abreast gathers over te.PathSet's
// PathGroups, EdgeQuads and PairQuads, against referenceMinimizeMLU, the
// iteration as it stood with a scalar math.Exp per path and per edge, a
// private Adam, the EdgeFlows scatter and a per-path gather: the ratios
// and the MLU must carry the same bits, cold, capped (some caps +Inf),
// warm started, jittered, with a zero-demand pair and with no demand at
// all. The ladder's long paths of unequal lengths exercise the 4-path
// groups' padding, and padded every layout's: partial quads and whole
// lanes of sentinels.
func TestMinimizeMLUMatchesScalarReference(t *testing.T) {
	topos := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"geant", graph.GEANT(), 3},
		{"pod-web", graph.PoDWEB(), 4},
		{"pfabric", graph.PFabric(), 3},
		{"ladder", ladder(15), 3},
		{"padded", padded(), 3},
	}
	for ti, tc := range topos {
		ps, err := te.NewPathSet(tc.g, tc.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "ladder" {
			// The case exists for the 4-path groups: make sure it
			// reaches long paths and groups of unequal lengths.
			_, start := ps.EdgeCSR()
			longest, uneven := 0, false
			for p := 0; p < ps.NumPaths(); p++ {
				n := int(start[p+1] - start[p])
				longest = max(longest, n)
				if q := p &^ 3; n != int(start[q+1]-start[q]) {
					uneven = true
				}
			}
			if longest < 10 || !uneven {
				t.Fatalf("ladder: longest path %d edges, uneven groups %v", longest, uneven)
			}
		}
		if tc.name == "padded" {
			sizes := map[int]bool{}
			for _, pp := range ps.PairPaths[:4] {
				sizes[len(pp)] = true
			}
			if !sizes[1] || !sizes[2] || !sizes[3] || ps.Pairs.Count()%4 == 0 || tc.g.NumEdges()%4 == 0 {
				t.Fatalf("padded: first pair quad's sizes %v, %d pairs, %d edges", sizes, ps.Pairs.Count(), tc.g.NumEdges())
			}
		}
		rng := rand.New(rand.NewSource(int64(30 + ti)))
		d := make([]float64, ps.Pairs.Count())
		for i := range d {
			d[i] = rng.ExpFloat64()
		}
		d[rng.Intn(len(d))] = 0
		caps := make([]float64, ps.NumPaths())
		for p := range caps {
			if rng.Intn(4) == 0 {
				caps[p] = math.Inf(1)
			} else {
				caps[p] = 0.2 + 0.6*rng.Float64()
			}
		}
		cold, _ := referenceMinimizeMLU(ps, d, Options{Iters: 60})
		for _, c := range []struct {
			name string
			d    []float64
			opt  Options
		}{
			{"cold", d, Options{}},
			{"capped", d, Options{Iters: 300, Caps: caps}},
			{"warm", d, Options{Iters: 100, InitR: cold.R}},
			{"jitter", d, Options{Iters: 150, LR: 0.02, Seed: 7}},
			{"capped-jitter", d, Options{Iters: 120, Seed: 5, Caps: caps}},
			{"no-demand", make([]float64, len(d)), Options{Iters: 50}},
		} {
			got, gotMLU := MinimizeMLU(ps, c.d, c.opt)
			want, wantMLU := referenceMinimizeMLU(ps, c.d, c.opt)
			if math.Float64bits(gotMLU) != math.Float64bits(wantMLU) {
				t.Errorf("%s %s: MLU %v, scalar reference %v", tc.name, c.name, gotMLU, wantMLU)
			}
			for p := range want.R {
				if math.Float64bits(got.R[p]) != math.Float64bits(want.R[p]) {
					t.Errorf("%s %s: R[%d] = %v, scalar reference %v", tc.name, c.name, p, got.R[p], want.R[p])
					break
				}
			}
		}
	}
}

// FuzzMinimizeMLU holds MinimizeMLU against referenceMinimizeMLU on
// arbitrary inputs, on the triangle, pod-db, the ladder and padded: the
// same bits in every ratio and the MLU, where a NaN only needs to be a NaN
// on both sides. The demand cycles d0, d1, d2 over the pairs; mode bit 0
// warm starts from r0, r1 cycled over the paths, and bit 1 caps the paths
// at c0, c1 likewise. A non-finite demand or warm start, or a cap that is
// NaN or negative, must panic instead. Seeds in
// testdata/fuzz/FuzzMinimizeMLU.
func FuzzMinimizeMLU(f *testing.F) {
	var sets []*te.PathSet
	for _, g := range []*graph.Graph{graph.Triangle(), graph.PoDDB(), ladder(15), padded()} {
		ps, err := te.NewPathSet(g, 3, nil)
		if err != nil {
			f.Fatal(err)
		}
		sets = append(sets, ps)
	}
	f.Add(uint8(2), uint8(30), uint8(3), int64(0), 1.0, 0.0, 2.5, 0.7, 0.0, math.Inf(1), 0.2)
	f.Fuzz(func(t *testing.T, topo, iters, mode uint8, seed int64, d0, d1, d2, r0, r1, c0, c1 float64) {
		ps := sets[int(topo)%len(sets)]
		cycle := func(n int, v ...float64) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = v[i%len(v)]
			}
			return x
		}
		d := cycle(ps.Pairs.Count(), d0, d1, d2)
		opt := Options{Iters: 1 + int(iters)%100, Seed: seed}
		if mode&1 != 0 {
			opt.InitR = cycle(ps.NumPaths(), r0, r1)
		}
		if mode&2 != 0 {
			opt.Caps = cycle(ps.NumPaths(), c0, c1)
		}
		finite := func(v ...float64) bool {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
			return true
		}
		if !finite(d0, d1, d2) || mode&1 != 0 && !finite(r0, r1) || mode&2 != 0 && !(c0 >= 0 && c1 >= 0) {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "solver: ") {
					t.Errorf("bad input: recovered %q, want a solver: panic", msg)
				}
			}()
			MinimizeMLU(ps, d, opt)
			return
		}
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
		}
		got, gotMLU := MinimizeMLU(ps, d, opt)
		want, wantMLU := referenceMinimizeMLU(ps, d, opt)
		if !same(gotMLU, wantMLU) {
			t.Errorf("MLU %v, scalar reference %v", gotMLU, wantMLU)
		}
		for p := range want.R {
			if !same(got.R[p], want.R[p]) {
				t.Fatalf("R[%d] = %v, scalar reference %v", p, got.R[p], want.R[p])
			}
		}
	})
}

// TestMinimizeMLUDualityBracket brackets the LP optimum between a weak-
// duality lower bound and the solver's MLU. Any edge lengths l ≥ 0 with
// Σ_e c_e·l_e = 1 give LB = Σ_pairs d·min_p Σ_{e∈p} l_e ≤ MLU*, because
// every routing puts at least that much length-weighted flow on the
// network. The lengths here are the smooth-max weights at the returned
// routing, softmax(β·util)_e / c_e, the ones the solver descends along.
// LB ≤ lp.MLUMin ≤ UB then checks the solver and the simplex at once.
// Short mode keeps one of GEANT's five instances: its LP is the slow part.
func TestMinimizeMLUDualityBracket(t *testing.T) {
	topos := []struct {
		name  string
		g     *graph.Graph
		k     int
		iters int
	}{
		{"triangle", graph.Triangle(), 3, 400},
		{"pod-db", graph.PoDDB(), 3, 400},
		{"pod-web", graph.PoDWEB(), 4, 400},
		{"geant", graph.GEANT(), 3, 800},
	}
	for ti, tc := range topos {
		ps, err := te.NewPathSet(tc.g, tc.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		caps := ps.EdgeCaps()
		rng := rand.New(rand.NewSource(int64(70 + ti)))
		count := 5
		if testing.Short() && tc.name == "geant" {
			count = 1
		}
		for n := 0; n < count; n++ {
			d := make([]float64, ps.Pairs.Count())
			for i := range d {
				d[i] = rng.ExpFloat64()
			}
			d[rng.Intn(len(d))] = 0
			cfg, ub := MinimizeMLU(ps, d, Options{Iters: tc.iters})
			_, opt, err := lp.MLUMin(ps, d)
			if err != nil {
				t.Fatal(err)
			}

			flows := ps.EdgeFlows(d, cfg.R, nil)
			maxU := 0.0
			for e, f := range flows {
				maxU = max(maxU, f/caps[e])
			}
			l := make([]float64, len(flows))
			var sum float64
			for e, f := range flows {
				l[e] = math.Exp(betaRel / maxU * (f/caps[e] - maxU))
				sum += l[e]
			}
			for e := range l {
				l[e] /= sum * caps[e]
			}
			lb := 0.0
			for i, pp := range ps.PairPaths {
				shortest := math.Inf(1)
				for _, p := range pp {
					var length float64
					for _, e := range ps.EdgeIDs[p] {
						length += l[e]
					}
					shortest = min(shortest, length)
				}
				lb += d[i] * shortest
			}

			const tol = 1e-9
			if lb > opt*(1+tol) || opt > ub*(1+tol) {
				t.Errorf("%s #%d: bracket LB %.9g <= LP %.9g <= UB %.9g fails", tc.name, n, lb, opt, ub)
			}
			if lb <= 0 {
				t.Errorf("%s #%d: lower bound %v, want positive", tc.name, n, lb)
			}
			t.Logf("%s #%d: LB %.6g  LP %.6g  UB %.6g  (gap %.2f%%)", tc.name, n, lb, opt, ub, 100*(ub-lb)/ub)
		}
	}
}

// TestObjectiveGradient holds Eval's gradient to central differences of
// S(r) = M + (1/β)·ln Σ_e exp(β(u_e − M)), with M and β = betaRel/M frozen
// at the point evaluated, on GEANT and padded. A path whose pair has no
// demand gets exactly +0, and so does the sentinel slot; with no demand at
// all the MLU is 0 and every entry +0, after an evaluation that had some.
func TestObjectiveGradient(t *testing.T) {
	for ti, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"geant", graph.GEANT()}, {"padded", padded()}} {
		ps, err := te.NewPathSet(tc.g, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		P := ps.NumPaths()
		rng := rand.New(rand.NewSource(int64(50 + ti)))
		d := make([]float64, ps.Pairs.Count())
		for i := range d {
			d[i] = rng.ExpFloat64()
		}
		idle := rng.Intn(len(d))
		d[idle] = 0
		r := make([]float64, P)
		for _, pp := range ps.PairPaths {
			var sum float64
			for _, p := range pp {
				r[p] = 0.2 + rng.Float64()
				sum += r[p]
			}
			for _, p := range pp {
				r[p] /= sum
			}
		}

		obj := NewObjective(ps)
		obj.SetDemand(d)
		mlu, gr := obj.Eval(r)
		if want, _ := ps.MLU(d, r); mlu != want || len(gr) != P+1 || math.Float64bits(gr[P]) != 0 {
			t.Fatalf("%s: MLU %v (hard max %v), %d gradient entries (want %d), gr[P] = %v",
				tc.name, mlu, want, len(gr), P+1, gr[P])
		}
		beta, caps := betaRel/mlu, ps.EdgeCaps()
		smooth := func(r []float64) float64 {
			var sum float64
			for e, f := range ps.EdgeFlows(d, r, nil) {
				sum += math.Exp(beta * (f/caps[e] - mlu))
			}
			return mlu + math.Log(sum)/beta
		}
		scale := 0.0
		for _, v := range gr {
			scale = max(scale, math.Abs(v))
		}
		const h = 1e-6
		for p := range P {
			if ps.PairOf[p] == idle {
				if math.Float64bits(gr[p]) != 0 {
					t.Errorf("%s: path %d of the idle pair has gradient %v, want +0", tc.name, p, gr[p])
				}
				continue
			}
			x := slices.Clone(r)
			x[p] = r[p] + h
			up := smooth(x)
			x[p] = r[p] - h
			numeric := (up - smooth(x)) / (2 * h)
			if math.Abs(gr[p]-numeric) > 1e-6*scale {
				t.Errorf("%s: dS/dr[%d] = %v, central difference %v", tc.name, p, gr[p], numeric)
			}
		}

		obj.SetDemand(make([]float64, len(d)))
		mlu, gr = obj.Eval(r)
		if mlu != 0 {
			t.Errorf("%s: no demand, MLU %v", tc.name, mlu)
		}
		for p, v := range gr {
			if math.Float64bits(v) != 0 {
				t.Errorf("%s: no demand, gr[%d] = %v, want +0", tc.name, p, v)
				break
			}
		}
	}
}

// referenceMinimizeMLU is MinimizeMLU with a scalar math.Exp per path and
// per edge and its own flat-vector Adam, kept as the bit-level reference.
func referenceMinimizeMLU(ps *te.PathSet, d []float64, opt Options) (*te.Config, float64) {
	opt = opt.withDefaults()
	P := ps.NumPaths()
	z := make([]float64, P)
	switch {
	case opt.InitR != nil:
		for p, r := range opt.InitR {
			if r < 1e-9 {
				r = 1e-9
			}
			z[p] = math.Log(r)
		}
	case opt.Seed != 0:
		rng := rand.New(rand.NewSource(opt.Seed))
		for i := range z {
			z[i] = 0.01 * rng.NormFloat64()
		}
	}

	r := make([]float64, P)
	gr := make([]float64, P) // dL/dr
	gz := make([]float64, P) // dL/dz
	flows := make([]float64, ps.G.NumEdges())
	util := make([]float64, ps.G.NumEdges())
	w := make([]float64, ps.G.NumEdges())
	edgeIDs, edgeStart := ps.EdgeCSR()
	caps := ps.EdgeCaps()

	ad := newReferenceAdam(P, opt.LR)

	best := math.Inf(1)
	bestR := make([]float64, P)

	for it := 0; it < opt.Iters; it++ {
		referenceSoftmaxPerPair(ps, z, r)
		ps.EdgeFlows(d, r, flows)
		maxU := 0.0
		for e := range flows {
			util[e] = flows[e] / caps[e]
			if util[e] > maxU {
				maxU = util[e]
			}
		}
		score := maxU
		if opt.Caps != nil {
			score += penaltyWeight * capViolation(r, opt.Caps)
		}
		if score < best {
			best = score
			copy(bestR, r)
		}
		if maxU == 0 {
			break
		}

		beta := betaRel / maxU
		var sumW float64
		for e := range util {
			w[e] = math.Exp(beta * (util[e] - maxU))
			sumW += w[e]
		}
		inv := 1 / sumW
		for e := range w {
			w[e] = w[e] * inv / caps[e]
		}
		for p := range gr {
			dp := d[ps.PairOf[p]]
			if dp == 0 {
				gr[p] = 0
				continue
			}
			var g float64
			for _, e := range edgeIDs[edgeStart[p]:edgeStart[p+1]] {
				g += w[e] * dp
			}
			gr[p] = g
		}
		if opt.Caps != nil {
			for p, c := range opt.Caps {
				if math.IsInf(c, 1) {
					continue
				}
				if v := r[p] - c; v > 0 {
					gr[p] += 2 * penaltyWeight * v
				}
			}
		}
		for _, pp := range ps.PairPaths {
			var mean float64
			for _, p := range pp {
				mean += r[p] * gr[p]
			}
			for _, p := range pp {
				gz[p] = r[p] * (gr[p] - mean)
			}
		}
		ad.step(z, gz)
	}

	cfg := te.NewConfig(ps)
	copy(cfg.R, bestR)
	if opt.Caps != nil {
		projectCaps(ps, cfg, opt.Caps)
	}
	m, _ := ps.MLU(d, cfg.R)
	return cfg, m
}

func referenceSoftmaxPerPair(ps *te.PathSet, z, r []float64) {
	for _, pp := range ps.PairPaths {
		mx := math.Inf(-1)
		for _, p := range pp {
			if z[p] > mx {
				mx = z[p]
			}
		}
		var sum float64
		for _, p := range pp {
			r[p] = math.Exp(z[p] - mx)
			sum += r[p]
		}
		inv := 1 / sum
		for _, p := range pp {
			r[p] *= inv
		}
	}
}

type referenceAdam struct {
	lr, b1, b2, eps float64
	t               int
	m, v            []float64
}

func newReferenceAdam(n int, lr float64) *referenceAdam {
	return &referenceAdam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

func (a *referenceAdam) step(x, g []float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i := range x {
		a.m[i] = a.b1*a.m[i] + (1-a.b1)*g[i]
		a.v[i] = a.b2*a.v[i] + (1-a.b2)*g[i]*g[i]
		x[i] -= a.lr * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.eps)
	}
}
