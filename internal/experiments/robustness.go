package experiments

import (
	"fmt"
	"strings"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/traffic"
)

// PerturbationResult covers Tables 3 and 5: FIGRET's degradation under
// increasing synthetic fluctuations, in the paper's two regimes (variance-
// aligned noise for Table 3, variance-rank-reversed noise for Table 5).
type PerturbationResult struct {
	Topo      string
	WorstCase bool
	Alphas    []float64
	// AvgDecline[i] and P90Decline[i] are percentage increases of the mean
	// and 90th-percentile MLU at Alphas[i] relative to the unperturbed run.
	AvgDecline []float64
	P90Decline []float64
	// Spearman is the train/test variance-rank correlation (reported with
	// Table 5 to show how unlikely the worst case is).
	Spearman float64
}

// Perturbation reproduces Table 3 (worstCase=false) or Table 5
// (worstCase=true) on the environment.
func Perturbation(env *Env, cfg figret.Config, alphas []float64, worstCase bool) (*PerturbationResult, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.2, 0.5, 1.0, 2.0}
	}
	fig, err := env.trainFigret(cfg, env.Train)
	if err != nil {
		return nil, err
	}
	baseAvg, baseP90, err := evalModel(fig, env.Test)
	if err != nil {
		return nil, err
	}
	res := &PerturbationResult{Topo: env.Topo, WorstCase: worstCase, Alphas: alphas}
	res.Spearman = traffic.SpearmanRank(env.Train.Variances(), env.Test.Variances())
	for i, a := range alphas {
		var pert *traffic.Trace
		if worstCase {
			pert = traffic.WorstCasePerturb(env.Test, env.Train, a, env.Seed+int64(100+i))
		} else {
			pert = traffic.Perturb(env.Test, env.Train, a, env.Seed+int64(100+i))
		}
		avg, p90, err := evalModel(fig, pert)
		if err != nil {
			return nil, err
		}
		res.AvgDecline = append(res.AvgDecline, 100*(avg-baseAvg)/baseAvg)
		res.P90Decline = append(res.P90Decline, 100*(p90-baseP90)/baseP90)
	}
	return res, nil
}

// evalModel runs a trained model over every snapshot of a trace that has
// a full window behind it, on the evaluation engine (raw MLUs, snapshots
// in parallel), and returns (mean, p90) MLU.
func evalModel(m *figret.Model, tr *traffic.Trace) (avg, p90 float64, err error) {
	h := m.Cfg.H
	if tr.Len() <= h {
		return 0, 0, fmt.Errorf("experiments: no snapshots to evaluate")
	}
	run, err := eval.Run(
		[]baselines.Scheme{&baselines.NNScheme{Label: "model", Model: m}},
		tr, eval.Window{From: h, To: tr.Len()}, eval.Options{})
	if err != nil {
		return 0, 0, err
	}
	return run.Schemes[0].Stats.Mean, traffic.Quantile(run.Schemes[0].Raw, 0.9), nil
}

// declineTable renders the three rows Tables 3–5 share — the column
// labels, then the avg and p90 percentage changes — in w-wide columns.
func declineTable(b *strings.Builder, w int, head string, cols []string, avg, p90 []float64) {
	fmt.Fprintf(b, "%-*s", w, head)
	for _, c := range cols {
		fmt.Fprintf(b, " %*s", w, c)
	}
	b.WriteString("\n")
	for _, row := range []struct {
		name string
		vals []float64
	}{{"avg %", avg}, {"p90 %", p90}} {
		fmt.Fprintf(b, "%-*s", w, row.name)
		for _, v := range row.vals {
			fmt.Fprintf(b, " %+*.1f", w, v)
		}
		b.WriteString("\n")
	}
}

// String renders the table.
func (r *PerturbationResult) String() string {
	var b strings.Builder
	kind := "variance-aligned (Table 3)"
	if r.WorstCase {
		kind = "variance-rank-reversed worst case (Table 5)"
	}
	fmt.Fprintf(&b, "FIGRET degradation on %s under %s fluctuations\n", r.Topo, kind)
	alphas := make([]string, len(r.Alphas))
	for i, a := range r.Alphas {
		alphas[i] = fmt.Sprintf("%.1f", a)
	}
	declineTable(&b, 8, "alpha", alphas, r.AvgDecline, r.P90Decline)
	if r.WorstCase {
		fmt.Fprintf(&b, "train/test variance-rank Spearman correlation: %.2f (high ⇒ worst case is rare)\n", r.Spearman)
	}
	return b.String()
}

// DriftResult is the Table 4 study: training on older data segments and
// testing on the final 25%.
type DriftResult struct {
	Topo     string
	Segments []string
	// AvgDecline / P90Decline are percentage changes vs the 0–75% model.
	AvgDecline []float64
	P90Decline []float64
}

// Drift reproduces Table 4.
func Drift(env *Env, cfg figret.Config) (*DriftResult, error) {
	n := env.Trace.Len()
	q := n / 4
	test := env.Trace.Slice(3*q, n)
	segs := []struct {
		name     string
		from, to int
	}{
		{"0-75% (ref)", 0, 3 * q},
		{"0-25%", 0, q},
		{"25-50%", q, 2 * q},
		{"50-75%", 2 * q, 3 * q},
	}
	var refAvg, refP90 float64
	res := &DriftResult{Topo: env.Topo}
	for i, sg := range segs {
		m, err := env.trainFigret(cfg, env.Trace.Slice(sg.from, sg.to))
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", sg.name, err)
		}
		avg, p90, err := evalModel(m, test)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			refAvg, refP90 = avg, p90
			continue
		}
		res.Segments = append(res.Segments, sg.name)
		res.AvgDecline = append(res.AvgDecline, 100*(avg-refAvg)/refAvg)
		res.P90Decline = append(res.P90Decline, 100*(p90-refP90)/refP90)
	}
	return res, nil
}

// String renders Table 4.
func (r *DriftResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGRET under natural traffic drift on %s (vs model trained on 0-75%%)\n", r.Topo)
	declineTable(&b, 10, "segment", r.Segments, r.AvgDecline, r.P90Decline)
	return b.String()
}
