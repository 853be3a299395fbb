package figret

import (
	"math/rand"

	"figret/internal/nn"
	"figret/internal/traffic"
)

// TrainSequential is the single-sample reference trainer: per-sample
// Forward/Backward accumulating into the network's gradient, one Adam step
// every BatchSize samples and at the epoch's end. It shares no code with
// the batched engine but the loss and its normalization, which is what
// makes it the equivalence oracle for Train (identical seeds must produce
// bitwise-identical loss trajectories and weights).
func (m *Model) TrainSequential(tr *traffic.Trace) (TrainStats, error) {
	if err := m.fitTrace(tr); err != nil {
		return TrainStats{}, err
	}
	opt := nn.NewAdam(learningRate)
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	order := m.sampleOrder(tr)
	stats := TrainStats{}
	scratch := newLossScratch(m.PS)
	dy := make([]float64, m.PS.NumPaths())

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
			r := normalizePerPairInto(m.PS, y, scratch)
			loss, mlu, gr := m.lossAndGrad(r, tr.At(t), scratch)
			normalizeGradInto(m.PS, gr, scratch, dy)
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

// normalizedWindow returns the scaled input vector for snapshot t.
func (m *Model) normalizedWindow(tr *traffic.Trace, t int) []float64 {
	w := make([]float64, m.Cfg.H*tr.Pairs.Count())
	m.scaledWindowInto(w, tr, t)
	return w
}
