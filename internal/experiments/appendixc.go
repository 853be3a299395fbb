package experiments

import (
	"fmt"
	"strings"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/lp"
	"figret/internal/traffic"
)

// HeuristicFResult is the Appendix C study (Tables 7/8, Figures 10/12):
// desensitization-based TE with hand-designed fine-grained sensitivity
// functions F, compared against the fixed-bound original.
type HeuristicFResult struct {
	Topo    string
	Entries []HeuristicFEntry
}

// HeuristicFEntry is one parameterization's outcome.
type HeuristicFEntry struct {
	Label string
	// NormalCase is the mean normalized MLU at or below the 75th percentile
	// (the paper's "normal-case performance").
	NormalCase float64
	// Peak is the maximum normalized MLU (burst-handling capability).
	Peak float64
}

// paramsLinear mirrors Table 7 (Min/Max of the linear F). The 'Original'
// entry is the constant-bound Des TE.
var paramsLinear = []struct {
	label    string
	min, max float64
	constant bool
}{
	{"1:strict(1/3..1/2)", 1.0 / 3, 1.0 / 2, false},
	{"2:strict(1/3..2/3)", 1.0 / 3, 2.0 / 3, false},
	{"3:original(2/3)", 2.0 / 3, 2.0 / 3, true},
	{"4:relaxed(2/3..5/6)", 2.0 / 3, 5.0 / 6, false},
	{"5:both(1/3..5/6)", 1.0 / 3, 5.0 / 6, false},
}

// paramsPiecewise mirrors Table 8 (Min/Max/breakpoint of the piecewise F).
var paramsPiecewise = []struct {
	label      string
	min, max   float64
	breakpoint float64
	constant   bool
}{
	{"1:strict bp=0.5", 1.0 / 2, 2.0 / 3, 0.5, false},
	{"2:strict bp=0.65", 1.0 / 2, 2.0 / 3, 0.65, false},
	{"3:strict bp=0.8", 1.0 / 2, 2.0 / 3, 0.8, false},
	{"4:original(2/3)", 2.0 / 3, 2.0 / 3, 0, true},
	{"5:relaxed bp=0.5", 2.0 / 3, 5.0 / 6, 0.5, false},
	{"6:relaxed bp=0.65", 2.0 / 3, 5.0 / 6, 0.65, false},
	{"7:relaxed bp=0.8", 2.0 / 3, 5.0 / 6, 0.8, false},
}

// HeuristicF runs the Appendix C parameter study. kind is "linear" or
// "piecewise".
func HeuristicF(env *Env, kind string, maxEval int) (*HeuristicFResult, error) {
	vars := env.Train.Variances()
	res := &HeuristicFResult{Topo: env.Topo}

	type param struct {
		label string
		f     func(pair int) float64
	}
	var params []param
	switch kind {
	case "linear":
		for _, p := range paramsLinear {
			if p.constant {
				params = append(params, param{p.label, lp.ConstantF(p.min)})
			} else {
				params = append(params, param{p.label, lp.LinearF(vars, p.min, p.max)})
			}
		}
	case "piecewise":
		for _, p := range paramsPiecewise {
			if p.constant {
				params = append(params, param{p.label, lp.ConstantF(p.min)})
			} else {
				params = append(params, param{p.label, lp.PiecewiseF(vars, p.min, p.max, p.breakpoint)})
			}
		}
	default:
		return nil, fmt.Errorf("experiments: unknown heuristic kind %q", kind)
	}

	from := 1
	to := env.Test.Len()
	if to-from > maxEval {
		to = from + maxEval
	}
	schemes := make([]baselines.Scheme, len(params))
	for i, p := range params {
		schemes[i] = &baselines.DesTE{PS: env.PS, Solve: env.Oracle().CachedSolve, H: 12, F: p.f, Label: p.label}
	}
	run, err := eval.Run(schemes, env.Test, eval.Window{From: from, To: to}, eval.Options{Oracle: env.Oracle()})
	if err != nil {
		return nil, err
	}
	for _, ss := range run.Schemes {
		norm := ss.Norm
		p75 := traffic.Quantile(norm, 0.75)
		var sum float64
		var n int
		peak := 0.0
		for _, v := range norm {
			if v <= p75 {
				sum += v
				n++
			}
			if v > peak {
				peak = v
			}
		}
		res.Entries = append(res.Entries, HeuristicFEntry{
			Label:      ss.Name,
			NormalCase: sum / float64(n),
			Peak:       peak,
		})
	}
	return res, nil
}

// String renders the parameter study.
func (r *HeuristicFResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Heuristic fine-grained F study on %s (normalized MLU)\n", r.Topo)
	fmt.Fprintf(&b, "%-22s %12s %8s\n", "parameters", "normal-case", "peak")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%-22s %12.3f %8.3f\n", e.Label, e.NormalCase, e.Peak)
	}
	b.WriteString("expected shape: relaxing stable-pair caps lowers normal-case MLU;\n")
	b.WriteString("tightening bursty-pair caps lowers the peak\n")
	return b.String()
}
