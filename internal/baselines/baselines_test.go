package baselines

import (
	"math"
	"testing"

	"figret/internal/figret"
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
	tr, err := traffic.DC(traffic.PoDDB, 4, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	return ps, tr
}

func TestOmniscientIsLowerEnvelope(t *testing.T) {
	ps, tr := setup(t)
	omni := &Omniscient{PS: ps, Solve: LPSolve}
	pred := &PredTE{PS: ps, Solve: LPSolve}
	o, err := Evaluate(omni, tr, 100, 110)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Evaluate(pred, tr, 100, 110)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o {
		if p[i] < o[i]-1e-7 {
			t.Errorf("snapshot %d: PredTE %v beat omniscient %v", i, p[i], o[i])
		}
	}
	norm := Normalize(p, o)
	for i, v := range norm {
		if v < 1-1e-6 {
			t.Errorf("normalized MLU %v < 1 at %d", v, i)
		}
	}
}

func TestDesTERespectsBound(t *testing.T) {
	ps, tr := setup(t)
	des := &DesTE{PS: ps, Solve: LPSolve, Bound: 0.5, H: 8}
	cfg, err := des.Advise(tr, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized sensitivities must respect the constant bound (after the
	// feasibility repair, which can only loosen caps for pairs that would
	// otherwise be infeasible).
	minCap := ps.G.MinCapacity()
	for p, r := range cfg.R {
		s := r * minCap / ps.Cap[p]
		if s > 0.5+1e-6 {
			// Check whether this pair's caps were repaired.
			sum := 0.0
			for _, q := range ps.PairPaths[ps.PairOf[p]] {
				sum += 0.5 * ps.Cap[q] / minCap
			}
			if sum >= 1 {
				t.Errorf("path %d sensitivity %v exceeds bound", p, s)
			}
		}
	}
}

func TestDesTEWorseThanOmniscientInNormalCase(t *testing.T) {
	ps, tr := setup(t)
	omni := &Omniscient{PS: ps, Solve: LPSolve}
	des := &DesTE{PS: ps, Solve: LPSolve, Bound: 0.5}
	o, err := Evaluate(omni, tr, 100, 112)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Evaluate(des, tr, 100, 112)
	if err != nil {
		t.Fatal(err)
	}
	var so, sd float64
	for i := range o {
		so += o[i]
		sd += d[i]
	}
	if sd <= so {
		t.Errorf("DesTE average %v should exceed omniscient %v", sd, so)
	}
}

func TestFineGrainedDominatesConstantObjective(t *testing.T) {
	// Appendix C: relaxing the sensitivity caps of stable pairs (LinearF
	// with min equal to the constant bound) enlarges the feasible region,
	// so the optimized peak-matrix objective can only improve. On real
	// traffic the two must stay comparable (the paper reports ~5% gains;
	// here we only require no blow-up, since the magnitude depends on the
	// trace).
	ps, tr := setup(t)
	train, _ := tr.Split(0.75)
	vars := train.Variances()
	peak := tr.PeakMatrix(95, 8)

	constCaps := capsFor(ps, func(int) float64 { return 0.5 })
	lin := linearFForTest(vars, 0.5, 0.9)
	fineCaps := capsFor(ps, lin)
	_, objConst, err := LPSolve(ps, peak, constCaps)
	if err != nil {
		t.Fatal(err)
	}
	_, objFine, err := LPSolve(ps, peak, fineCaps)
	if err != nil {
		t.Fatal(err)
	}
	if objFine > objConst+1e-7 {
		t.Errorf("looser caps worsened objective: %v vs %v", objFine, objConst)
	}

	constant := &DesTE{PS: ps, Solve: LPSolve, Bound: 0.5, H: 8}
	fine := &DesTE{PS: ps, Solve: LPSolve, H: 8, F: lin, Label: "FG linear"}
	c, err := Evaluate(constant, tr, 95, 115)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Evaluate(fine, tr, 95, 115)
	if err != nil {
		t.Fatal(err)
	}
	var sc, sf float64
	for i := range c {
		sc += c[i]
		sf += f[i]
	}
	if sf > 1.1*sc {
		t.Errorf("fine-grained avg %v blew up vs constant %v", sf/20, sc/20)
	}
}

// capsFor mirrors lp.SensitivityCaps for tests (normalized capacities).
func capsFor(ps *te.PathSet, f func(int) float64) []float64 {
	minCap := ps.G.MinCapacity()
	caps := make([]float64, ps.NumPaths())
	for p := range caps {
		caps[p] = f(ps.PairOf[p]) * ps.Cap[p] / minCap
	}
	return caps
}

func linearFForTest(vars []float64, min, max float64) func(int) float64 {
	idx := make([]int, len(vars))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && vars[idx[j]] < vars[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	rank := make([]int, len(vars))
	for r, i := range idx {
		rank[i] = r
	}
	n := float64(len(vars) - 1)
	return func(pair int) float64 {
		return max - float64(rank[pair])/n*(max-min)
	}
}

func TestObliviousGuardsWorstCase(t *testing.T) {
	ps, tr := setup(t)
	train, _ := tr.Split(0.75)
	dmax := PeakDemand(train)
	obl, oblObj, err := ObliviousConfig(ps, dmax, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := obl.Validate(); err != nil {
		t.Fatal(err)
	}
	// The oblivious config's worst box demand must be within its objective.
	_, worst := worstBoxDemand(ps, obl, dmax)
	if worst > oblObj*(1+1e-4) {
		t.Errorf("worst-case %v exceeds oblivious objective %v", worst, oblObj)
	}
	// Against the corner demand, oblivious should beat the all-direct
	// config (which concentrates everything on single links).
	direct := te.NewConfig(ps)
	_, wDirect := worstBoxDemand(ps, direct, dmax)
	if worst > wDirect+1e-9 {
		t.Errorf("oblivious worst case %v not better than direct's %v", worst, wDirect)
	}
}

func TestObliviousWorseInNormalCase(t *testing.T) {
	ps, tr := setup(t)
	train, test := tr.Split(0.75)
	dmax := PeakDemand(train)
	obl, _, err := ObliviousConfig(ps, dmax, 8)
	if err != nil {
		t.Fatal(err)
	}
	omni := &Omniscient{PS: ps, Solve: LPSolve}
	fix := &FixedScheme{Label: "Oblivious", Cfg: obl}
	o, err := Evaluate(omni, test, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(fix, test, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	var so, sb float64
	for i := range o {
		so += o[i]
		sb += b[i]
	}
	if sb <= so {
		t.Errorf("oblivious normal-case %v should exceed omniscient %v", sb, so)
	}
}

func TestCOPEBetween(t *testing.T) {
	// COPE should have better normal-case MLU than pure oblivious (it
	// optimizes the predicted set) while keeping a bounded worst case.
	ps, tr := setup(t)
	train, test := tr.Split(0.75)
	dmax := PeakDemand(train)
	pred := RecentDemands(train, 10)
	cope, copeObj, err := COPEConfig(ps, pred, dmax, 2.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cope.Validate(); err != nil {
		t.Fatal(err)
	}
	obl, _, err := ObliviousConfig(ps, dmax, 8)
	if err != nil {
		t.Fatal(err)
	}
	evalAvg := func(c *te.Config) float64 {
		s := 0.0
		for i := 0; i < 10; i++ {
			s += c.MLU(test.At(i))
		}
		return s / 10
	}
	if evalAvg(cope) >= evalAvg(obl) {
		t.Errorf("COPE normal-case %v not better than oblivious %v", evalAvg(cope), evalAvg(obl))
	}
	_, worst := worstBoxDemand(ps, cope, dmax)
	if worst > 2*copeObj*(1+1e-3) {
		t.Errorf("COPE worst case %v exceeds 2x objective %v", worst, copeObj)
	}
	// Invalid penalty rejected.
	if _, _, err := COPEConfig(ps, pred, dmax, 0.5, 4); err == nil {
		t.Error("penalty < 1 accepted")
	}
}

func TestRaeckeSelectorProperties(t *testing.T) {
	g := graph.GEANT()
	sel := RaeckeSelector(0) // default inflation
	for _, pair := range [][2]int{{0, 12}, {5, 19}} {
		paths := sel(g, pair[0], pair[1], 3)
		if len(paths) == 0 {
			t.Fatalf("no paths for %v", pair)
		}
		seen := map[string]bool{}
		for _, p := range paths {
			if p[0] != pair[0] || p[len(p)-1] != pair[1] {
				t.Errorf("bad endpoints in %v", p)
			}
			if !p.IsSimple() {
				t.Errorf("non-simple path %v", p)
			}
			key := ""
			for _, v := range p {
				key += string(rune('a' + v))
			}
			if seen[key] {
				t.Errorf("duplicate path %v", p)
			}
			seen[key] = true
		}
	}
	// Path set construction over the selector works end to end.
	ps, err := te.NewPathSet(g, 3, sel)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumPaths() < ps.Pairs.Count() {
		t.Error("fewer paths than pairs")
	}
}

func TestTEALIsPerDemand(t *testing.T) {
	ps, tr := setup(t)
	train, test := tr.Split(0.75)
	teal := NewTEAL(ps, 6, 11)
	if !teal.Cfg.SelfTarget || teal.Cfg.H != 1 {
		t.Fatalf("TEAL config wrong: %+v", teal.Cfg)
	}
	if _, err := teal.Train(train); err != nil {
		t.Fatal(err)
	}
	s := &NNScheme{Label: "TEAL", Model: teal}
	mlus, err := Evaluate(s, test, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mlus {
		if math.IsNaN(m) || m <= 0 {
			t.Errorf("bad TEAL MLU %v", m)
		}
	}
}

func TestGradSolveAsSolveFunc(t *testing.T) {
	ps, tr := setup(t)
	sf := GradSolve(solver.Options{Iters: 200})
	cfg, obj, err := sf(ps, tr.At(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	lpCfg, lpObj, err := LPSolve(ps, tr.At(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = lpCfg
	if obj > lpObj*1.05+1e-9 {
		t.Errorf("grad solve %v vs LP %v", obj, lpObj)
	}
}

func TestAutoSolvePicksByScale(t *testing.T) {
	small, _ := te.NewPathSet(graph.FullMesh(4, 10), 3, nil)
	// AutoSolve on a small instance must agree with the LP (it IS the LP).
	d := make([]float64, small.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	_, a, err := AutoSolve(small)(small, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := LPSolve(small, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("AutoSolve small: %v vs LP %v", a, b)
	}
	big, err := te.NewPathSet(graph.ToRDB(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Just verify it returns without using the LP (fast enough to run).
	db := make([]float64, big.Pairs.Count())
	for i := range db {
		db[i] = 0.01
	}
	cfg, _, err := AutoSolve(big)(big, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateRangeErrors(t *testing.T) {
	ps, tr := setup(t)
	omni := &Omniscient{PS: ps, Solve: LPSolve}
	if _, err := Evaluate(omni, tr, 200, 100); err == nil {
		t.Error("empty range accepted")
	}
}

func TestEvaluateRejectsWarmupShift(t *testing.T) {
	// The legacy clamping silently returned a shorter, index-shifted
	// series when the scheme's warmup exceeded the requested start —
	// misaligning it against any base series over the same window. The
	// legacy path must now refuse instead.
	ps, tr := setup(t)
	pred := &PredTE{PS: ps, Solve: LPSolve} // warmup 1
	if _, err := Evaluate(pred, tr, 0, 10); err == nil {
		t.Fatal("warmup > from accepted; series would be index-shifted")
	}
	series, err := Evaluate(pred, tr, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 9 {
		t.Errorf("got %d MLUs, want 9", len(series))
	}
}

func TestNormalizeEdgeCases(t *testing.T) {
	// Zero base entries: 0/0 is defined as 1 (both idle), x/0 as +Inf.
	n := Normalize([]float64{0, 3, 2}, []float64{0, 0, 4})
	if n[0] != 1 {
		t.Errorf("0/0 = %v, want 1", n[0])
	}
	if !math.IsInf(n[1], 1) {
		t.Errorf("3/0 = %v, want +Inf", n[1])
	}
	if n[2] != 0.5 {
		t.Errorf("2/4 = %v, want 0.5", n[2])
	}
	// A shorter series normalizes against the base prefix.
	n = Normalize([]float64{2, 2}, []float64{1, 2, 4})
	if n[0] != 2 || n[1] != 1 {
		t.Errorf("prefix normalization = %v, want [2 1]", n)
	}
	// A series longer than its base cannot be aligned; that must panic
	// rather than read out of bounds or silently truncate.
	defer func() {
		if recover() == nil {
			t.Error("series longer than base accepted")
		}
	}()
	Normalize([]float64{1, 2}, []float64{1})
}

func TestNNSchemeWithFigret(t *testing.T) {
	ps, tr := setup(t)
	train, test := tr.Split(0.75)
	m := figret.New(ps, figret.Config{H: 4, Gamma: 1, Epochs: 5, Seed: 12})
	if _, err := m.Train(train); err != nil {
		t.Fatal(err)
	}
	s := &NNScheme{Label: "FIGRET", Model: m}
	if s.Warmup() != 4 {
		t.Errorf("warmup = %d", s.Warmup())
	}
	// Starting before the warmup is an explicit error now (the engine
	// aligns windows per scheme; the legacy path refuses to shift).
	if _, err := Evaluate(s, test, 0, 12); err == nil {
		t.Error("warmup > from accepted")
	}
	mlus, err := Evaluate(s, test, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(mlus) != 8 {
		t.Errorf("got %d MLUs, want 8", len(mlus))
	}
}
