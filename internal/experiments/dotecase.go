package experiments

import (
	"fmt"
	"strings"

	"figret/internal/figret"
	"figret/internal/te"
)

// DOTECaseResult is the Appendix G.2 (Figure 20) failure-case study: DOTE,
// seeing a stable low window for an SD pair, concentrates that pair on a
// high-sensitivity allocation; when the pair bursts in the next snapshot the
// MLU spikes. The study locates the worst DOTE snapshot on a bursty trace
// and inspects the responsible pair.
type DOTECaseResult struct {
	Topo string
	// N is the topology's vertex count (for pair-index rendering).
	N int
	// Snapshot is the test index where DOTE's MLU (normalized by FIGRET's)
	// peaked.
	Snapshot int
	// DOTEMLU and FigretMLU are the raw MLUs at that snapshot.
	DOTEMLU, FigretMLU float64
	// Pair is the SD pair with the largest demand jump at that snapshot.
	Pair int
	// WindowMean is the pair's mean demand over the preceding window, and
	// Upcoming its demand at the snapshot (the "stable then burst" pattern).
	WindowMean, Upcoming float64
	// DOTESens and FigretSens are the pair's max path sensitivities.
	DOTESens, FigretSens float64
}

// DOTEFailureCase reproduces the Figure 20 narrative on the environment.
func DOTEFailureCase(env *Env, cfg figret.Config) (*DOTECaseResult, error) {
	fig, dote, err := env.TrainModels(cfg)
	if err != nil {
		return nil, err
	}
	h := fig.Cfg.H
	res := &DOTECaseResult{Topo: env.Topo, N: env.G.NumVertices(), Snapshot: -1}
	worstRatio := 0.0
	for t := h; t < env.Test.Len(); t++ {
		d := env.Test.At(t)
		dc, err := dote.PredictAt(env.Test, t)
		if err != nil {
			return nil, err
		}
		fc, err := fig.PredictAt(env.Test, t)
		if err != nil {
			return nil, err
		}
		dm := dc.MLU(d)
		fm := fc.MLU(d)
		if fm <= 0 {
			continue
		}
		if ratio := dm / fm; ratio > worstRatio {
			worstRatio = ratio
			res.Snapshot = t
			res.DOTEMLU = dm
			res.FigretMLU = fm
		}
	}
	if res.Snapshot < 0 {
		return nil, fmt.Errorf("experiments: no snapshots evaluated")
	}

	// Identify the pair with the largest absolute demand jump vs its window.
	t := res.Snapshot
	d := env.Test.At(t)
	k := env.PS.Pairs.Count()
	bestJump := -1.0
	for pi := 0; pi < k; pi++ {
		var mean float64
		for i := t - h; i < t; i++ {
			mean += env.Test.At(i)[pi]
		}
		mean /= float64(h)
		if jump := d[pi] - mean; jump > bestJump {
			bestJump = jump
			res.Pair = pi
			res.WindowMean = mean
			res.Upcoming = d[pi]
		}
	}
	dc, _ := dote.PredictAt(env.Test, t)
	fc, _ := fig.PredictAt(env.Test, t)
	res.DOTESens = env.PS.MaxPairSensitivities(dc.R, true)[res.Pair]
	res.FigretSens = env.PS.MaxPairSensitivities(fc.R, true)[res.Pair]
	return res, nil
}

// String renders the case study.
func (r *DOTECaseResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DOTE failure case on %s (worst DOTE/FIGRET snapshot %d)\n", r.Topo, r.Snapshot)
	fmt.Fprintf(&b, "MLU: DOTE %.3f vs FIGRET %.3f\n", r.DOTEMLU, r.FigretMLU)
	s, d := te.NewPairs(r.N).SD(r.Pair)
	fmt.Fprintf(&b, "burst pair (%d->%d): window mean %.3f, upcoming %.3f (%.1fx)\n",
		s, d, r.WindowMean, r.Upcoming, safeRatio(r.Upcoming, r.WindowMean))
	fmt.Fprintf(&b, "pair max path sensitivity: DOTE %.3f vs FIGRET %.3f\n", r.DOTESens, r.FigretSens)
	b.WriteString("DOTE, seeing a calm window, left the pair on sensitive paths;\n")
	b.WriteString("FIGRET's variance-weighted loss had pre-hedged it\n")
	return b.String()
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
