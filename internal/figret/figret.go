// Package figret implements the paper's primary contribution: a deep-
// learning TE scheme that maps a history window of demand matrices directly
// to a TE configuration, trained with the burst-aware loss
//
//	L(R_t, D_t) = MLU(R_t, D_t) + γ · Σ_{s,d} σ²_sd · S^max_sd(R_t)
//
// (Equations 7 and 8). The first term teaches the network to minimize the
// expected MLU of the upcoming demand; the second imposes variance-weighted
// path-sensitivity pressure, yielding fine-grained robustness: bursty SD
// pairs (large historical variance σ²_sd) are pushed toward low-sensitivity
// (spread, high-capacity) path allocations while stable pairs are left free
// to use their best paths.
//
// Setting γ = 0 recovers DOTE (Perry et al., NSDI'23), which is exactly how
// the DOTE baseline is built in this repository.
package figret

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"figret/internal/nn"
	"figret/internal/te"
	"figret/internal/traffic"
)

// Config holds FIGRET's hyperparameters. Zero values select the paper's
// defaults where the paper specifies them.
type Config struct {
	// H is the history-window length (number of past demand matrices fed to
	// the DNN). Default 12, the paper's evaluation setting.
	H int
	// Gamma weighs the robustness loss term L2. 0 disables it (DOTE).
	Gamma float64
	// Hidden lists hidden-layer widths. Default: five layers of 128
	// (Appendix D.4).
	Hidden []int
	// Epochs is the number of training passes. Default 15.
	Epochs int
	// Seed drives weight initialization and sample shuffling.
	Seed int64
	// BatchSize is the minibatch size of the batched training engine: each
	// Adam step consumes the summed gradients of this many samples,
	// evaluated as one [B][In] matrix pass through the network (default 1,
	// per-sample updates as in the paper's protocol; larger batches trade
	// update frequency for gradient smoothness and throughput). For any
	// fixed BatchSize the trajectory is bitwise identical to sequential
	// per-sample evaluation with gradient accumulation (TrainSequential).
	BatchSize int
	// TrainWorkers bounds the goroutines a training step fans out over:
	// its kernels — forward and backward tiles, the Adam sweep — and the
	// per-row work around them, window assembly and loss scoring. Every
	// output, gradient row, parameter and batch row has one writer and a
	// fixed accumulation order, so the loss trajectory and the trained
	// weights are bitwise identical for every value (DESIGN.md §10). 0 (the
	// default) selects GOMAXPROCS; 1 trains on the calling goroutine alone
	// and starts no other — the way to confine a retrain to one core.
	// Excluded from model serialization: it is an execution knob of the
	// machine that trains, not a property of the trained model — saved
	// models must be byte-identical for any worker count.
	TrainWorkers int `json:"-"`
	// CoarseGrained replaces the per-pair variance weights of the L2 term
	// with a uniform weight of 1 — the coarse-grained robustness of
	// desensitization-based TE, kept as an ablation of the paper's central
	// fine-grained design choice.
	CoarseGrained bool
	// SelfTarget switches the training objective to TEAL-style per-demand
	// optimization: the input window ends at D_t (inclusive) and the loss is
	// evaluated against that same D_t. The default (false) is the
	// FIGRET/DOTE protocol: the window ends at D_{t-1} and the loss is
	// evaluated against the unseen D_t.
	SelfTarget bool
}

const (
	// learningRate is the Adam learning rate, constant over training.
	learningRate = 1e-3
	// smoothMaxBeta is the smooth-max sharpness used when differentiating
	// the MLU term (see internal/solver).
	smoothMaxBeta = 30
)

func (c Config) withDefaults() Config {
	if c.H == 0 {
		c.H = 12
	}
	if c.Hidden == nil {
		c.Hidden = []int{128, 128, 128, 128, 128}
	}
	if c.Epochs == 0 {
		c.Epochs = 15
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	return c
}

// Model is a trained (or trainable) FIGRET instance bound to a path set.
type Model struct {
	PS  *te.PathSet
	Cfg Config
	Net *nn.MLP

	// VarWeights are the normalized per-pair demand variances measured on
	// the training trace (σ²_sd of Eq. 8, scaled to [0,1]).
	VarWeights []float64
	// Scale normalizes DNN inputs: demands are divided by Scale before the
	// forward pass. Set from the training trace's mean demand.
	Scale float64
	// LossScale makes Gamma dimensionless: the L2 term is multiplied by the
	// training trace's typical MLU (uniform-config average), so the two loss
	// terms stay comparable regardless of the trace's demand units.
	LossScale float64

	// pool recycles the Predictors that Predict and PredictAt borrow.
	pool sync.Pool
}

// New constructs an untrained model for ps under cfg.
func New(ps *te.PathSet, cfg Config) *Model {
	cfg = cfg.withDefaults()
	in := cfg.H * ps.Pairs.Count()
	sizes := append([]int{in}, cfg.Hidden...)
	sizes = append(sizes, ps.NumPaths())
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Model{
		PS:         ps,
		Cfg:        cfg,
		Net:        nn.NewMLP(sizes, nn.ReLU, nn.Sigmoid, rng),
		VarWeights: make([]float64, ps.Pairs.Count()),
		Scale:      1,
		LossScale:  1,
	}
}

// NewDOTE constructs the DOTE baseline: identical architecture with the
// robustness term disabled.
func NewDOTE(ps *te.PathSet, cfg Config) *Model {
	cfg.Gamma = 0
	return New(ps, cfg)
}

// TrainStats reports per-epoch averages of the loss components.
type TrainStats struct {
	EpochLoss []float64 // total loss L1 + γ·L2
	EpochMLU  []float64 // L1 alone (hard max)
}

// fitTrace fits input normalization, variance weights and the loss scale
// on the training trace, and validates trace/model compatibility.
func (m *Model) fitTrace(tr *traffic.Trace) error {
	if tr.Pairs.Count() != m.PS.Pairs.Count() {
		return fmt.Errorf("figret: trace has %d pairs, model %d", tr.Pairs.Count(), m.PS.Pairs.Count())
	}
	if tr.Len() <= m.Cfg.H {
		return fmt.Errorf("figret: trace length %d too short for window %d", tr.Len(), m.Cfg.H)
	}
	m.Scale = meanDemand(tr)
	if m.Scale <= 0 {
		m.Scale = 1
	}
	vars := tr.Variances()
	maxV := 0.0
	for _, v := range vars {
		if v > maxV {
			maxV = v
		}
	}
	for i, v := range vars {
		if maxV > 0 {
			m.VarWeights[i] = v / maxV
		} else {
			m.VarWeights[i] = 0
		}
	}
	if m.Cfg.CoarseGrained {
		for i := range m.VarWeights {
			m.VarWeights[i] = 1
		}
	}
	m.LossScale = typicalMLU(m.PS, tr)
	return nil
}

// sampleOrder returns the shuffled-in-place training target order for tr.
// With SelfTarget the window for target t ends at t itself, so targets
// start at H-1; otherwise the window is the H snapshots before t.
func (m *Model) sampleOrder(tr *traffic.Trace) []int {
	first := m.Cfg.H
	if m.Cfg.SelfTarget {
		first = m.Cfg.H - 1
	}
	order := make([]int, tr.Len()-first)
	for i := range order {
		order[i] = i + first
	}
	return order
}

// Train fits the model on tr under the protocol of §4.3 — for every t in
// [H, len), the window {D_{t-H}..D_{t-1}} is the input and the revealed
// D_t scores the output configuration — on the deterministic training
// engine (nn.DataParallel, DESIGN.md §10): each shuffled minibatch of
// Cfg.BatchSize windows is assembled into a row-major [B][H·K] matrix in
// scaled form (scaledWindowInto, single pass, no allocation), forwarded,
// scored row by row (lossAndGrad) and backpropagated, then Adam steps.
// The kernels and, on a path set large enough to pay for it
// (nn.DataParallel.ForRows), the rows of assembly and scoring fan out over
// Cfg.TrainWorkers goroutines; each row writes only its own slots and the
// epoch sums run in row order afterwards, so the loss trajectory and final
// weights are bitwise identical for every worker count, and bitwise
// identical to TrainSequential at every BatchSize.
func (m *Model) Train(tr *traffic.Trace) (TrainStats, error) {
	if err := m.fitTrace(tr); err != nil {
		return TrainStats{}, err
	}
	batch := m.Cfg.BatchSize
	in := m.Cfg.H * m.PS.Pairs.Count()

	opt := nn.NewAdam(learningRate)
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	order := m.sampleOrder(tr)
	if batch > len(order) {
		batch = len(order)
	}

	eng := nn.NewDataParallel(m.Net, m.Cfg.TrainWorkers)
	xb := make([]float64, batch*in)  // minibatch input matrix [B][H·K]
	losses := make([]float64, batch) // per-sample losses, summed in order
	mlus := make([]float64, batch)
	ls := make([]*lossScratch, batch) // one per row chunk, made by the first worker to score it
	var mb []int                      // targets of the minibatch currently being scored
	score := func(_ int, y []float64, r0, r1 int, dy []float64) {
		P := m.PS.NumPaths()
		eng.ForRows(r1-r0, scoreWork(m.PS, r1-r0), func(k, lo, hi int) {
			if ls[k] == nil {
				ls[k] = newLossScratch(m.PS)
			}
			for i := lo; i < hi; i++ {
				r := normalizePerPairInto(m.PS, y[i*P:(i+1)*P], ls[k])
				loss, mlu, gr := m.lossAndGrad(r, tr.At(mb[r0+i]), ls[k])
				normalizeGradInto(m.PS, gr, ls[k], dy[i*P:(i+1)*P])
				losses[r0+i], mlus[r0+i] = loss, mlu
			}
		})
	}

	stats := TrainStats{}
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumLoss, sumMLU float64
		for start := 0; start < len(order); start += batch {
			bs := batch
			if rem := len(order) - start; bs > rem {
				bs = rem
			}
			mb = order[start : start+bs]
			eng.ForRows(bs, bs*in, func(_, lo, hi int) {
				for bi := lo; bi < hi; bi++ {
					wt := mb[bi]
					if m.Cfg.SelfTarget {
						wt++
					}
					m.scaledWindowInto(xb[bi*in:(bi+1)*in], tr, wt)
				}
			})
			eng.Accumulate(xb[:bs*in], bs, score)
			eng.Step(opt)
			for bi := 0; bi < bs; bi++ {
				sumLoss += losses[bi]
				sumMLU += mlus[bi]
			}
		}
		n := float64(len(order))
		stats.EpochLoss = append(stats.EpochLoss, sumLoss/n)
		stats.EpochMLU = append(stats.EpochMLU, sumMLU/n)
	}
	return stats, nil
}

// TrainSequential is the single-sample reference trainer: per-sample
// Forward/Backward accumulating into the network's gradient, one Adam step
// every BatchSize samples and at the epoch's end. It shares no code with
// the batched engine below the loss, which is what makes it the equivalence
// oracle for Train (identical seeds must produce bitwise-identical loss
// trajectories and weights).
func (m *Model) TrainSequential(tr *traffic.Trace) (TrainStats, error) {
	if err := m.fitTrace(tr); err != nil {
		return TrainStats{}, err
	}
	opt := nn.NewAdam(learningRate)
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	order := m.sampleOrder(tr)
	stats := TrainStats{}
	scratch := newLossScratch(m.PS)

	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumLoss, sumMLU float64
		pending := 0
		for _, t := range order {
			wt := t
			if m.Cfg.SelfTarget {
				wt = t + 1
			}
			x := m.normalizedWindow(tr, wt)
			y := m.Net.Forward(x)
			r, dRtoY := normalizePerPair(m.PS, y)
			loss, mlu, gr := m.lossAndGrad(r, tr.At(t), scratch)
			dy := dRtoY(gr)
			m.Net.Backward(dy)
			pending++
			if pending == m.Cfg.BatchSize {
				opt.Step(m.Net)
				pending = 0
			}
			sumLoss += loss
			sumMLU += mlu
		}
		if pending > 0 {
			opt.Step(m.Net)
		}
		n := float64(len(order))
		stats.EpochLoss = append(stats.EpochLoss, sumLoss/n)
		stats.EpochMLU = append(stats.EpochMLU, sumMLU/n)
	}
	return stats, nil
}

// Predict maps a raw (unscaled) history window to a feasible TE
// configuration. The window layout is H consecutive snapshots, oldest first,
// as produced by traffic.Trace.Window. Safe for concurrent use: the forward
// pass runs on a Predictor borrowed from a pool the model owns, so it costs
// no per-call allocation beyond the returned configuration.
func (m *Model) Predict(window []float64) (*te.Config, error) {
	p := m.borrow()
	cfg, err := p.Predict(window)
	m.pool.Put(p)
	return cfg, err
}

// PredictAt returns the configuration for snapshot t of tr from the window
// ending at t-1, assembled directly into the borrowed Predictor's input
// buffer. Safe for concurrent use, like Predict.
func (m *Model) PredictAt(tr *traffic.Trace, t int) (*te.Config, error) {
	p := m.borrow()
	cfg, err := p.PredictAt(tr, t)
	m.pool.Put(p)
	return cfg, err
}

func (m *Model) borrow() *Predictor {
	if p, _ := m.pool.Get().(*Predictor); p != nil {
		return p
	}
	return m.NewPredictor()
}

// Predictor is a goroutine-confined inference context for a Model: it owns
// every buffer the forward pass touches (an nn.Scratch plus an input
// window). Model.Predict and PredictAt borrow one per call; a caller that
// wants to own its scratch holds one per goroutine. Outputs are bitwise
// identical to the sequential nn.MLP.Forward kernel (see internal/nn). A
// Predictor must not be shared between goroutines; the Model's weights must
// not be trained while any prediction is in flight.
type Predictor struct {
	m       *Model
	scratch *nn.Scratch
	x       []float64
}

// NewPredictor returns an inference context for m.
func (m *Model) NewPredictor() *Predictor {
	return &Predictor{
		m:       m,
		scratch: nn.NewScratch(m.Net, 1),
		x:       make([]float64, m.Cfg.H*m.PS.Pairs.Count()),
	}
}

// Predict maps a raw history window to a TE configuration, exactly as
// Model.Predict does.
func (p *Predictor) Predict(window []float64) (*te.Config, error) {
	if len(window) != len(p.x) {
		return nil, fmt.Errorf("figret: window has %d entries, want %d", len(window), len(p.x))
	}
	scaleInto(p.x, window, 1/p.m.Scale)
	return p.forward(), nil
}

// PredictAt returns the configuration for snapshot t of tr from the
// window ending at t-1, exactly as Model.PredictAt does.
func (p *Predictor) PredictAt(tr *traffic.Trace, t int) (*te.Config, error) {
	if t < p.m.Cfg.H || t > tr.Len() {
		return nil, fmt.Errorf("figret: snapshot %d outside predictable range [%d,%d]", t, p.m.Cfg.H, tr.Len())
	}
	p.m.scaledWindowInto(p.x, tr, t)
	return p.forward(), nil
}

// forward runs the batch-1 forward pass on the already-scaled p.x using
// the predictor-owned scratch and converts the outputs to a feasible
// configuration.
func (p *Predictor) forward() *te.Config {
	y := p.m.Net.BatchForward(p.x, 1, p.scratch)
	cfg := te.NewConfig(p.m.PS)
	copy(cfg.R, y)
	cfg.Normalize()
	return cfg
}

// scaleInto writes dst[i] = src[i]·f in one pass — the shared fusion of
// copy and input scaling used by window assembly and inference. dst must
// be at least len(src) long; exactly len(src) entries are written.
func scaleInto(dst, src []float64, f float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v * f
	}
}

// scaledWindowInto assembles the H-snapshot window ending before t (the
// layout of traffic.Trace.WindowInto) directly in input-scaled form: each
// snapshot is copied and divided by Scale in a single fused pass, so
// minibatch assembly touches every row of xb exactly once.
func (m *Model) scaledWindowInto(dst []float64, tr *traffic.Trace, t int) {
	H := m.Cfg.H
	if t < H || t > tr.Len() {
		panic(fmt.Sprintf("figret: window t=%d H=%d len=%d", t, H, tr.Len()))
	}
	k := tr.Pairs.Count()
	if len(dst) != H*k {
		panic(fmt.Sprintf("figret: window dst has %d entries, want %d", len(dst), H*k))
	}
	inv := 1 / m.Scale
	for i := 0; i < H; i++ {
		scaleInto(dst[i*k:(i+1)*k], tr.At(t-H+i), inv)
	}
}

// normalizedWindow returns the scaled input vector for snapshot t.
func (m *Model) normalizedWindow(tr *traffic.Trace, t int) []float64 {
	w := make([]float64, m.Cfg.H*tr.Pairs.Count())
	m.scaledWindowInto(w, tr, t)
	return w
}

// lossScratch holds every reusable buffer one loss evaluation needs. Train
// keeps one per chunk of minibatch rows it scores side by side (one in all
// when scoring stays on the calling goroutine), TrainSequential one.
type lossScratch struct {
	flows []float64
	util  []float64
	w     []float64
	gr    []float64
	r     []float64 // per-pair-normalized split ratios
	sums  []float64 // per-pair raw-output sums (for the backward map)
}

// scoreWork sizes the scoring of b rows for nn's fan-out threshold, whose
// unit is a kernel's multiply-add: what a row costs is its sweeps over the
// path set's path–edge incidences (EdgeFlows, then the smooth-max
// gradient), one multiply-add an incidence, counted as one sweep.
func scoreWork(ps *te.PathSet, b int) int {
	ids, _ := ps.EdgeCSR()
	return b * len(ids)
}

func newLossScratch(ps *te.PathSet) *lossScratch {
	return &lossScratch{
		flows: make([]float64, ps.G.NumEdges()),
		util:  make([]float64, ps.G.NumEdges()),
		w:     make([]float64, ps.G.NumEdges()),
		gr:    make([]float64, ps.NumPaths()),
		r:     make([]float64, ps.NumPaths()),
		sums:  make([]float64, ps.Pairs.Count()),
	}
}

// normalizePerPairInto is the allocation-free counterpart of
// normalizePerPair: it writes the feasible ratios into ls.r (recording the
// pair sums in ls.sums for normalizeGradInto) and returns ls.r. The math
// matches normalizePerPair operation for operation.
func normalizePerPairInto(ps *te.PathSet, y []float64, ls *lossScratch) []float64 {
	r, sums := ls.r, ls.sums
	for pi, pp := range ps.PairPaths {
		var s float64
		for _, p := range pp {
			s += y[p]
		}
		sums[pi] = s
		if s < 1e-12 {
			w := 1 / float64(len(pp))
			for _, p := range pp {
				r[p] = w
			}
			continue
		}
		inv := 1 / s
		for _, p := range pp {
			r[p] = y[p] * inv
		}
	}
	return r
}

// normalizeGradInto maps dL/dr back to dL/dy through the per-pair
// normalization recorded by the preceding normalizePerPairInto on ls,
// writing into dy (every entry is set, so dy may hold stale values).
func normalizeGradInto(ps *te.PathSet, gr []float64, ls *lossScratch, dy []float64) {
	r, sums := ls.r, ls.sums
	for pi, pp := range ps.PairPaths {
		s := sums[pi]
		if s < 1e-12 {
			for _, p := range pp {
				dy[p] = 0 // degenerate pair: no gradient
			}
			continue
		}
		var mean float64
		for _, p := range pp {
			mean += r[p] * gr[p]
		}
		inv := 1 / s
		for _, p := range pp {
			dy[p] = inv * (gr[p] - mean)
		}
	}
}

// lossAndGrad evaluates L = L1 + γ·L2 at split ratios r against the revealed
// demand d, returning (total loss, hard-max MLU, dL/dr).
//
// L1 uses the log-sum-exp smooth max for a dense gradient; the reported MLU
// is the exact hard max. L2 = Σ_sd σ̂²_sd · max_{p∈sd} r_p/Ĉ_p with the
// subgradient routed through each pair's arg-max path; Ĉ_p is the path
// capacity normalized by the topology's minimum edge capacity.
func (m *Model) lossAndGrad(r, d []float64, s *lossScratch) (loss, mlu float64, gr []float64) {
	ps := m.PS
	caps := ps.EdgeCaps()
	ps.EdgeFlows(d, r, s.flows)
	maxU := 0.0
	for e := range s.flows {
		s.util[e] = s.flows[e] / caps[e]
		if s.util[e] > maxU {
			maxU = s.util[e]
		}
	}
	for p := range s.gr {
		s.gr[p] = 0
	}
	mlu = maxU
	loss = maxU
	if maxU > 0 {
		// Smooth-max weights, pre-divided by edge capacity so the CSR
		// gradient sweep below is a single multiply-accumulate per edge.
		beta := smoothMaxBeta / maxU
		var sumW float64
		for e := range s.util {
			s.w[e] = math.Exp(beta * (s.util[e] - maxU))
			sumW += s.w[e]
		}
		inv := 1 / sumW
		for e := range s.w {
			s.w[e] = s.w[e] * inv / caps[e]
		}
		ids, start := ps.EdgeCSR()
		for p := range s.gr {
			dp := d[ps.PairOf[p]]
			if dp == 0 {
				continue
			}
			var g float64
			for _, e := range ids[start[p]:start[p+1]] {
				g += s.w[e] * dp
			}
			s.gr[p] = g
		}
	}
	if m.Cfg.Gamma > 0 {
		gamma := m.Cfg.Gamma * m.LossScale
		minCap := ps.G.MinCapacity()
		if minCap <= 0 {
			minCap = 1
		}
		// The Eq. 8 sum is averaged over pairs so that γ's scale is
		// topology-independent: the raw sum grows with |V|², which would
		// drown the MLU term on large fabrics for any fixed γ.
		invK := 1 / float64(ps.Pairs.Count())
		var l2 float64
		for pi, pp := range ps.PairPaths {
			wv := m.VarWeights[pi]
			if wv == 0 {
				continue
			}
			bestP, bestS := -1, -1.0
			for _, p := range pp {
				if sp := r[p] * minCap / ps.Cap[p]; sp > bestS {
					bestS, bestP = sp, p
				}
			}
			if bestP >= 0 {
				l2 += wv * bestS * invK
				s.gr[bestP] += gamma * wv * invK * minCap / ps.Cap[bestP]
			}
		}
		loss += gamma * l2
	}
	return loss, mlu, s.gr
}

// normalizePerPair converts raw sigmoid outputs y to feasible ratios r and
// returns a closure mapping dL/dr back to dL/dy through the normalization
// r_p = y_p / Σ_{q∈pair} y_q. Pairs whose outputs sum to ~0 fall back to a
// uniform split with zero gradient.
func normalizePerPair(ps *te.PathSet, y []float64) (r []float64, backward func(gr []float64) []float64) {
	P := ps.NumPaths()
	r = make([]float64, P)
	sums := make([]float64, ps.Pairs.Count())
	for pi, pp := range ps.PairPaths {
		var s float64
		for _, p := range pp {
			s += y[p]
		}
		sums[pi] = s
		if s < 1e-12 {
			w := 1 / float64(len(pp))
			for _, p := range pp {
				r[p] = w
			}
			continue
		}
		inv := 1 / s
		for _, p := range pp {
			r[p] = y[p] * inv
		}
	}
	backward = func(gr []float64) []float64 {
		dy := make([]float64, P)
		for pi, pp := range ps.PairPaths {
			s := sums[pi]
			if s < 1e-12 {
				continue // degenerate pair: no gradient
			}
			var mean float64
			for _, p := range pp {
				mean += r[p] * gr[p]
			}
			inv := 1 / s
			for _, p := range pp {
				dy[p] = inv * (gr[p] - mean)
			}
		}
		return dy
	}
	return r, backward
}

func meanDemand(tr *traffic.Trace) float64 {
	var sum float64
	var n int
	for _, s := range tr.Snapshots {
		for _, v := range s {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// typicalMLU estimates the trace's MLU magnitude: the uniform-split MLU
// averaged over up to 32 evenly spaced snapshots. Used to scale the L2 loss
// term so Gamma is independent of demand units.
func typicalMLU(ps *te.PathSet, tr *traffic.Trace) float64 {
	cfg := te.UniformConfig(ps)
	step := tr.Len() / 32
	if step == 0 {
		step = 1
	}
	var sum float64
	var n int
	for t := 0; t < tr.Len(); t += step {
		m, _ := ps.MLU(tr.At(t), cfg.R)
		sum += m
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return sum / float64(n)
}

// modelJSON is the serialization schema for Save/Load.
type modelJSON struct {
	Cfg        Config    `json:"cfg"`
	Net        *nn.MLP   `json:"net"`
	VarWeights []float64 `json:"var_weights"`
	Scale      float64   `json:"scale"`
	LossScale  float64   `json:"loss_scale"`
}

// MarshalJSON serializes hyperparameters, weights and normalization state.
// The path set is not serialized; Load requires the same topology.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{Cfg: m.Cfg, Net: m.Net, VarWeights: m.VarWeights, Scale: m.Scale, LossScale: m.LossScale})
}

// LoadModel restores a model serialized by MarshalJSON onto ps.
func LoadModel(ps *te.PathSet, data []byte) (*Model, error) {
	var j modelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	return bind(ps, j)
}

// Snapshot returns an independent deep copy of m bound to ps: the model
// LoadModel(ps, m.MarshalJSON()) yields, bit for bit and through the same
// validation (Cfg.TrainWorkers, never serialized, comes out 0), without
// the text.
func (m *Model) Snapshot(ps *te.PathSet) (*Model, error) {
	j := modelJSON{Cfg: m.Cfg, VarWeights: slices.Clone(m.VarWeights), Scale: m.Scale, LossScale: m.LossScale}
	j.Cfg.TrainWorkers = 0
	j.Cfg.Hidden = slices.Clone(m.Cfg.Hidden)
	if m.Net != nil {
		var err error
		if j.Net, err = m.Net.Snapshot(); err != nil {
			return nil, err
		}
	}
	return bind(ps, j)
}

// bind validates a decoded or snapshotted model against ps and assembles
// the Model over j's network and slices.
func bind(ps *te.PathSet, j modelJSON) (*Model, error) {
	if j.Net == nil || len(j.VarWeights) != ps.Pairs.Count() {
		return nil, fmt.Errorf("figret: serialized model does not match topology")
	}
	out := j.Net.Layers[len(j.Net.Layers)-1].Out
	if out != ps.NumPaths() {
		return nil, fmt.Errorf("figret: model outputs %d paths, topology has %d", out, ps.NumPaths())
	}
	// JSON cannot carry NaN or ±Inf (json.Marshal refuses them); a snapshot
	// of a diverged in-process model can. nn has checked the network.
	scalars := []float64{j.Scale, j.LossScale, j.Cfg.Gamma}
	for _, vs := range [][]float64{scalars, j.VarWeights} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("figret: model holds a non-finite scale, hyperparameter or variance weight %v", v)
			}
		}
	}
	// The window the predictor assembles is cfg.H snapshots of every pair;
	// a first layer of any other width would panic on the first Predict.
	if in := j.Net.Layers[0].In; j.Cfg.H <= 0 || j.Cfg.H*ps.Pairs.Count() != in {
		return nil, fmt.Errorf("figret: model window H=%d over %d pairs does not match its %d network inputs",
			j.Cfg.H, ps.Pairs.Count(), in)
	}
	// Inputs are divided by Scale.
	if j.Scale <= 0 {
		return nil, fmt.Errorf("figret: model input scale %v is not positive", j.Scale)
	}
	if j.LossScale == 0 {
		j.LossScale = 1
	}
	return &Model{PS: ps, Cfg: j.Cfg, Net: j.Net, VarWeights: j.VarWeights, Scale: j.Scale, LossScale: j.LossScale}, nil
}
