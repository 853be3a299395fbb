package figret

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"figret/internal/graph"
	"figret/internal/lp"
	"figret/internal/te"
	"figret/internal/traffic"
)

func smallSetup(t *testing.T) *te.PathSet {
	t.Helper()
	ps, err := te.NewPathSet(graph.FullMesh(4, 10), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// burstyTrace builds a trace on 4 nodes where pair (0,1) bursts hard and
// every other pair is almost constant.
func burstyTrace(ps *te.PathSet, T int, burstEvery int, burstSize float64) *traffic.Trace {
	tr := traffic.NewTrace(4)
	k := ps.Pairs.Count()
	hot := ps.Pairs.Index(0, 1)
	for t := 0; t < T; t++ {
		snap := make([]float64, k)
		for i := 0; i < k; i++ {
			snap[i] = 4 + 0.05*math.Sin(float64(t+i))
		}
		if burstEvery > 0 && t%burstEvery == 0 {
			snap[hot] = burstSize
		}
		tr.Append(snap)
	}
	return tr
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.H != 12 || c.Epochs != 15 || len(c.Hidden) != 5 {
		t.Errorf("defaults = %+v", c)
	}
	for _, h := range c.Hidden {
		if h != 128 {
			t.Errorf("hidden width %d, want 128", h)
		}
	}
}

func TestNormalizePerPairForwardBackward(t *testing.T) {
	ps := smallSetup(t)
	y := make([]float64, ps.NumPaths())
	for i := range y {
		y[i] = 0.1 + 0.05*float64(i%7)
	}
	ls := newLossScratch(ps)
	r := normalizePerPairInto(ps, y, ls)
	for _, pp := range ps.PairPaths {
		sum := 0.0
		for _, p := range pp {
			sum += r[p]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("pair ratios sum to %v", sum)
		}
	}
	// Numeric gradient check through the normalization for an arbitrary
	// downstream loss L(r) = Σ a_p r_p².
	a := make([]float64, ps.NumPaths())
	for i := range a {
		a[i] = float64(i%5) - 2
	}
	probe := newLossScratch(ps)
	loss := func(y []float64) float64 {
		r := normalizePerPairInto(ps, y, probe)
		s := 0.0
		for p := range r {
			s += a[p] * r[p] * r[p]
		}
		return s
	}
	gr := make([]float64, len(r))
	for p := range gr {
		gr[p] = 2 * a[p] * r[p]
	}
	dy := make([]float64, len(y))
	normalizeGradInto(ps, gr, ls, dy)
	const h = 1e-7
	for _, idx := range []int{0, 5, len(y) - 1} {
		yp := append([]float64(nil), y...)
		yp[idx] += h
		ym := append([]float64(nil), y...)
		ym[idx] -= h
		want := (loss(yp) - loss(ym)) / (2 * h)
		if math.Abs(dy[idx]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("dy[%d] = %v, numeric %v", idx, dy[idx], want)
		}
	}
}

func TestNormalizePerPairDegenerate(t *testing.T) {
	ps := smallSetup(t)
	y := make([]float64, ps.NumPaths()) // all zero
	ls := newLossScratch(ps)
	r := normalizePerPairInto(ps, y, ls)
	pp := ps.PairPaths[0]
	for _, p := range pp {
		if math.Abs(r[p]-1/float64(len(pp))) > 1e-12 {
			t.Errorf("degenerate pair ratio %v", r[p])
		}
	}
	// dy starts out non-zero: normalizeGradInto must write every entry.
	dy := make([]float64, len(y))
	for i := range dy {
		dy[i] = 1
	}
	normalizeGradInto(ps, make([]float64, len(y)), ls, dy)
	for _, v := range dy {
		if v != 0 {
			t.Error("degenerate pair should get zero gradient")
		}
	}
}

func TestLossGradientDecreasesMLU(t *testing.T) {
	// A (sub)gradient step from the all-direct config must reduce the true
	// MLU on a demand that overloads one direct path.
	ps := smallSetup(t)
	m := New(ps, Config{H: 2, Seed: 1})
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	d[ps.Pairs.Index(0, 1)] = 8
	cfg := te.NewConfig(ps)
	// Soften: mostly-direct but interior so gradients exist.
	for _, pp := range ps.PairPaths {
		cfg.R[pp[0]] = 0.9
		for _, p := range pp[1:] {
			cfg.R[p] = 0.1 / float64(len(pp)-1)
		}
	}
	s := newLossScratch(ps)
	_, mlu0, gr := m.lossAndGrad(cfg.R, d, s)
	step := cfg.Clone()
	for p := range step.R {
		step.R[p] -= 0.02 * gr[p]
	}
	step.Normalize()
	mlu1 := step.MLU(d)
	if mlu1 >= mlu0 {
		t.Errorf("gradient step did not reduce MLU: %v -> %v", mlu0, mlu1)
	}
}

// TestLossAndGradAllocatesNothing: once its lossScratch exists, scoring a
// row (normalization, both loss terms, the gradient map back) allocates
// nothing. Skipped under -short, which the race job uses: -race allocates.
func TestLossAndGradAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contract: not under -short")
	}
	ps := smallSetup(t)
	m := New(ps, Config{H: 2, Gamma: 1, Seed: 1})
	for i := range m.VarWeights {
		m.VarWeights[i] = 1
	}
	d := burstyTrace(ps, 1, 1, 30).At(0)
	y := make([]float64, ps.NumPaths())
	for i := range y {
		y[i] = 0.1 + 0.05*float64(i%7)
	}
	s := newLossScratch(ps)
	dy := make([]float64, len(y))
	n := testing.AllocsPerRun(50, func() {
		r := normalizePerPairInto(ps, y, s)
		_, _, gr := m.lossAndGrad(r, d, s)
		normalizeGradInto(ps, gr, s, dy)
	})
	if n != 0 {
		t.Errorf("scoring a row: %v allocs/op, want 0", n)
	}
}

func TestL2TermTargetsBurstyPair(t *testing.T) {
	ps := smallSetup(t)
	m := New(ps, Config{H: 2, Gamma: 1, Seed: 1})
	hot := ps.Pairs.Index(0, 1)
	m.VarWeights[hot] = 1 // only the hot pair carries variance weight
	d := make([]float64, ps.Pairs.Count())
	cfg := te.UniformConfig(ps)
	// Make the hot pair's first path clearly the sensitivity argmax.
	pp := ps.PairPaths[hot]
	cfg.R[pp[0]] = 0.8
	cfg.R[pp[1]], cfg.R[pp[2]] = 0.1, 0.1
	s := newLossScratch(ps)
	loss, mlu, gr := m.lossAndGrad(cfg.R, d, s)
	if mlu != 0 {
		t.Fatalf("zero demand MLU = %v", mlu)
	}
	if loss <= 0 {
		t.Fatal("L2 term missing from loss")
	}
	if gr[pp[0]] <= 0 {
		t.Errorf("argmax path of bursty pair has gradient %v, want > 0", gr[pp[0]])
	}
	// Paths of stable pairs receive no L2 gradient.
	for pi, qq := range ps.PairPaths {
		if pi == hot {
			continue
		}
		for _, p := range qq {
			if gr[p] != 0 {
				t.Errorf("stable pair %d path %d has gradient %v", pi, p, gr[p])
			}
		}
	}
}

func TestTrainImprovesOverInit(t *testing.T) {
	ps := smallSetup(t)
	tr := burstyTrace(ps, 140, 10, 40)
	train, test := tr.Split(0.75)
	m := New(ps, Config{H: 4, Gamma: 0.5, Epochs: 8, Seed: 2})
	stats, err := m.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EpochMLU) != 8 {
		t.Fatalf("epochs recorded = %d", len(stats.EpochMLU))
	}
	first, last := stats.EpochMLU[0], stats.EpochMLU[len(stats.EpochMLU)-1]
	if last >= first {
		t.Errorf("training did not improve: %v -> %v", first, last)
	}
	// Test-set evaluation: trained model must beat the uniform config on
	// average and be within 2x of omniscient.
	var sumModel, sumUniform, sumOpt float64
	n := 0
	for snap := m.Cfg.H; snap < test.Len(); snap++ {
		cfg, err := m.PredictAt(test, snap)
		if err != nil {
			t.Fatal(err)
		}
		d := test.At(snap)
		sumModel += cfg.MLU(d)
		sumUniform += te.UniformConfig(ps).MLU(d)
		_, opt, err := lp.MLUMin(ps, d)
		if err != nil {
			t.Fatal(err)
		}
		sumOpt += opt
		n++
	}
	if n == 0 {
		t.Fatal("no test snapshots")
	}
	if sumModel >= sumUniform {
		t.Errorf("trained model avg MLU %v not better than uniform %v", sumModel/float64(n), sumUniform/float64(n))
	}
	if sumModel > 2*sumOpt {
		t.Errorf("trained model avg MLU %v more than 2x omniscient %v", sumModel/float64(n), sumOpt/float64(n))
	}
}

func TestFigretHedgesBurstyPairMoreThanDOTE(t *testing.T) {
	// The core fine-grained-robustness claim, in miniature: with a single
	// bursty pair, FIGRET must allocate that pair's traffic with lower
	// maximum path sensitivity than DOTE does, while leaving stable pairs
	// essentially alone (§5.5, Figure 8).
	ps := smallSetup(t)
	tr := burstyTrace(ps, 160, 8, 50)
	train, test := tr.Split(0.75)
	cfg := Config{H: 4, Epochs: 10, Seed: 3}
	fig := New(ps, Config{H: 4, Epochs: 10, Seed: 3, Gamma: 2})
	dote := NewDOTE(ps, cfg)
	if _, err := fig.Train(train); err != nil {
		t.Fatal(err)
	}
	if _, err := dote.Train(train); err != nil {
		t.Fatal(err)
	}
	hot := ps.Pairs.Index(0, 1)
	var figHot, doteHot float64
	n := 0
	for snap := 4; snap < test.Len(); snap++ {
		fc, _ := fig.PredictAt(test, snap)
		dc, _ := dote.PredictAt(test, snap)
		figHot += ps.MaxPairSensitivities(fc.R, true)[hot]
		doteHot += ps.MaxPairSensitivities(dc.R, true)[hot]
		n++
	}
	figHot /= float64(n)
	doteHot /= float64(n)
	if figHot >= doteHot {
		t.Errorf("FIGRET bursty-pair sensitivity %v not below DOTE %v", figHot, doteHot)
	}
}

func TestPredictValidatesWindow(t *testing.T) {
	ps := smallSetup(t)
	m := New(ps, Config{H: 4})
	if _, err := m.Predict(make([]float64, 3)); err == nil {
		t.Error("short window accepted")
	}
	cfg, err := m.Predict(make([]float64, 4*ps.Pairs.Count()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("predicted config invalid: %v", err)
	}
}

func TestPredictorMatchesModelBitwise(t *testing.T) {
	// Predictor is the engine's concurrent inference path; its outputs
	// must be bitwise identical to Model.PredictAt (the batch-1 kernel
	// reproduces the sequential kernel exactly).
	ps := smallSetup(t)
	tr := burstyTrace(ps, 60, 10, 30)
	m := New(ps, Config{H: 4, Gamma: 1, Epochs: 2, Seed: 9})
	if _, err := m.Train(tr); err != nil {
		t.Fatal(err)
	}
	p := m.NewPredictor()
	for _, at := range []int{4, 17, 42, 59} {
		want, err := m.PredictAt(tr, at)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.PredictAt(tr, at)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.R {
			if got.R[i] != want.R[i] {
				t.Fatalf("t=%d path %d: predictor %v vs model %v", at, i, got.R[i], want.R[i])
			}
		}
	}
	if _, err := p.PredictAt(tr, 2); err == nil {
		t.Error("predictor accepted t inside warmup")
	}
	if _, err := p.Predict(make([]float64, 3)); err == nil {
		t.Error("predictor accepted short window")
	}
	// Alloc contract: a decision is the returned Config and its ratios;
	// window and activations live in the predictor.
	if n := testing.AllocsPerRun(50, func() { p.PredictAt(tr, 17) }); n > 2 && !testing.Short() {
		t.Errorf("Predictor.PredictAt: %v allocs/op, want <= 2", n)
	}
}

// TestModelPredictConcurrent: Model.PredictAt borrows its buffers from the
// model's pool, so goroutines sharing one Model race on nothing (run under
// -race) and each gets the bits a private Predictor — and the sequential
// Net.Forward kernel — produce.
func TestModelPredictConcurrent(t *testing.T) {
	ps := smallSetup(t)
	tr := burstyTrace(ps, 60, 10, 30)
	m := New(ps, Config{H: 4, Gamma: 1, Epochs: 1, Seed: 9})
	if _, err := m.Train(tr); err != nil {
		t.Fatal(err)
	}
	ats := []int{4, 17, 42, 59, 60}
	want := make([][]float64, len(ats))
	private := m.NewPredictor()
	for i, at := range ats {
		cfg, err := private.PredictAt(tr, at)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cfg.R
		seq := te.NewConfig(ps)
		copy(seq.R, m.Net.Forward(m.normalizedWindow(tr, at)))
		seq.Normalize()
		if !slices.Equal(seq.R, cfg.R) {
			t.Fatalf("t=%d: predictor differs from the sequential forward kernel", at)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(ats)
				got, err := m.PredictAt(tr, ats[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.R, want[i]) {
					t.Errorf("goroutine %d: Model.PredictAt(t=%d) differs from a private Predictor", g, ats[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTrainValidation(t *testing.T) {
	ps := smallSetup(t)
	m := New(ps, Config{H: 4})
	short := traffic.NewTrace(4)
	for i := 0; i < 3; i++ {
		short.Append(make([]float64, 12))
	}
	if _, err := m.Train(short); err == nil {
		t.Error("short trace accepted")
	}
	wrong := traffic.NewTrace(5)
	if _, err := m.Train(wrong); err == nil {
		t.Error("mismatched trace accepted")
	}
	// Each of these used to train without an error: a NaN in the trace
	// left Scale NaN and the model unmarshalable, a NaN or negative Gamma
	// trained DOTE and negative Epochs trained nothing.
	clean := burstyTrace(ps, 40, 10, 30)
	tainted := func(v float64) *traffic.Trace {
		tr := burstyTrace(ps, 40, 10, 30)
		tr.Snapshots[7][2] = v
		return tr
	}
	for _, c := range []struct {
		name string
		cfg  Config
		tr   *traffic.Trace
	}{
		{"NaN demand", Config{H: 4, Epochs: 1}, tainted(math.NaN())},
		{"+Inf demand", Config{H: 4, Epochs: 1}, tainted(math.Inf(1))},
		{"-Inf demand", Config{H: 4, Epochs: 1}, tainted(math.Inf(-1))},
		{"NaN Gamma", Config{H: 4, Epochs: 1, Gamma: math.NaN()}, clean},
		{"+Inf Gamma", Config{H: 4, Epochs: 1, Gamma: math.Inf(1)}, clean},
		{"negative Gamma", Config{H: 4, Epochs: 1, Gamma: -1}, clean},
		{"negative Epochs", Config{H: 4, Epochs: -3}, clean},
	} {
		for _, seq := range []bool{false, true} {
			m := New(ps, c.cfg)
			train := m.Train
			if seq {
				train = m.TrainSequential
			}
			if st, err := train(c.tr); err == nil || !strings.HasPrefix(err.Error(), "figret: ") {
				t.Errorf("%s (sequential %v): stats %+v, error %v, want a figret: error", c.name, seq, st, err)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ps := smallSetup(t)
	tr := burstyTrace(ps, 60, 10, 30)
	m := New(ps, Config{H: 3, Gamma: 1, Epochs: 2, Seed: 4})
	if _, err := m.Train(tr); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(ps, data)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Window(tr.Len(), 3)
	a, _ := m.Predict(w)
	b, _ := back.Predict(w)
	for i := range a.R {
		if math.Abs(a.R[i]-b.R[i]) > 1e-12 {
			t.Fatal("round-trip changed predictions")
		}
	}
	// Wrong topology rejected.
	other, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(other, data); err == nil {
		t.Error("model loaded onto wrong topology")
	}
}

func TestTrainDeterminism(t *testing.T) {
	ps := smallSetup(t)
	tr := burstyTrace(ps, 60, 10, 30)
	a := New(ps, Config{H: 3, Epochs: 2, Seed: 5})
	b := New(ps, Config{H: 3, Epochs: 2, Seed: 5})
	sa, err := a.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := b.Train(tr)
	for i := range sa.EpochLoss {
		if sa.EpochLoss[i] != sb.EpochLoss[i] {
			t.Fatal("training not deterministic")
		}
	}
}
