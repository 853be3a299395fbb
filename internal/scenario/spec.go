// Package scenario is the declarative scenario-matrix subsystem: a Spec
// names one cell of the paper's evaluation space — (topology × traffic
// model × perturbation × failure pattern × scheme set × evaluation mode)
// — in JSON, a Runner executes whole suites of cells on a worker
// pool that shares one environment (path set, oracle cache, trained
// models) per substrate across cells, and a checksummed golden-metrics
// store with tolerance-checked Compare turns the suite into a regression
// gate: any change that silently degrades a scenario's MLU, loss or
// latency fails CI.
//
// Determinism contract: a Spec's Metrics are a pure function of the spec
// alone — every random draw (traffic, perturbation, failure sampling,
// model initialization) is explicitly seeded, the evaluation engine is
// worker-count independent, and the closed-loop mode streams its trace
// through synchronous ingest. `bless` → `diff` therefore round-trips
// clean on an unchanged tree.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"figret/internal/experiments"
)

// Evaluation modes.
const (
	// ModeOffline scores schemes with the parallel evaluation engine
	// (eval.Run): per-snapshot MLU normalized by the shared omniscient
	// oracle.
	ModeOffline = "offline"
	// ModeFluid closes the loop with the fluid simulator
	// (netsim.ControlLoop): raw MLU, loss and queueing-delay proxies under
	// delayed installation.
	ModeFluid = "fluid"
	// ModeClosedLoop replays the trace through the serving subsystem's
	// HTTP API (serve.Replay): an in-process server hosts the trained
	// checkpoint and every snapshot is streamed with synchronous ingest.
	ModeClosedLoop = "closedloop"
)

// Scheme names accepted by Spec.Schemes. The NN schemes train on the
// environment's training split under Spec.Train; the rest are
// training-free.
const (
	SchemeFIGRET  = "figret"
	SchemeDOTE    = "dote"
	SchemeDesTE   = "deste"
	SchemePredTE  = "predte"
	SchemeUniform = "uniform"
)

// TrainSpec sizes NN-scheme training. The defaults are deliberately
// small: scenario cells are regression probes that run on every push,
// not paper-grade training runs.
type TrainSpec struct {
	// H is the history window (default 6).
	H int `json:"h,omitempty"`
	// Gamma is FIGRET's robustness weight (default 1).
	Gamma float64 `json:"gamma,omitempty"`
	// Epochs is the training pass count (default 2).
	Epochs int `json:"epochs,omitempty"`
	// Hidden overrides the MLP widths (default [32, 32]).
	Hidden []int `json:"hidden,omitempty"`
	// BatchSize is the minibatch size (default 16).
	BatchSize int `json:"batchSize,omitempty"`
}

func (t TrainSpec) withDefaults() TrainSpec {
	if t.H == 0 {
		t.H = 6
	}
	if t.Gamma == 0 {
		t.Gamma = 1
	}
	if t.Epochs == 0 {
		t.Epochs = 2
	}
	if t.Hidden == nil {
		t.Hidden = []int{32, 32}
	}
	if t.BatchSize == 0 {
		t.BatchSize = 16
	}
	return t
}

// PerturbSpec adds Table 3 / Table 5 style stress noise to the
// evaluation trace: additive Gaussian noise Alpha·N(0, σ²_sd) per pair,
// where σ_sd is measured on the training split.
type PerturbSpec struct {
	// Alpha scales the per-pair noise.
	Alpha float64 `json:"alpha"`
	// Seed drives the noise draw (default: Spec.Seed + 101).
	Seed int64 `json:"seed,omitempty"`
	// WorstCase reverses the per-pair σ ranking (Table 5's adversarial
	// variant).
	WorstCase bool `json:"worstCase,omitempty"`
}

// FailureSpec injects link failures mid-series: Count distinct links
// fail at the At'th evaluated snapshot and stay down for the rest of the
// window. Schemes respond with te.Reroute (§4.5) — no retraining.
type FailureSpec struct {
	// Count is the number of simultaneously failed links (1..).
	Count int `json:"count"`
	// Seed drives failure sampling (default: Spec.Seed + 77). The sampled
	// set is bit-identical for a given (topology, k, seed, count).
	Seed int64 `json:"seed,omitempty"`
	// At is the offset within the evaluation window at which the failure
	// hits (default 0: failed from the first evaluated snapshot).
	At int `json:"at,omitempty"`
}

// WindowSpec narrows the evaluated snapshot range, as offsets into the
// test split (both default to the full split).
type WindowSpec struct {
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"` // 0 = end of test split
}

// Spec declares one scenario. The zero values of the optional fields
// select documented defaults, so a minimal spec is just
// {name, topo, mode, schemes}.
type Spec struct {
	// Name identifies the scenario; golden files key on it. Suite names
	// must be unique.
	Name string `json:"name"`
	// Topo is a graph.Topo* name; the traffic model is the topology's
	// canonical workload (traffic.ForTopology): WAN bursts on geant,
	// gravity on uscarrier/cogentco/large-wan, pFabric flows on pfabric,
	// Meta DC profiles on pod-*/tor-*.
	Topo string `json:"topo"`
	// Scale is "fast" (default) or "full" (the paper's Table 1 sizes).
	Scale string `json:"scale,omitempty"`
	// Mode is one of ModeOffline, ModeFluid, ModeClosedLoop.
	Mode string `json:"mode"`
	// Schemes lists the evaluated schemes (Scheme* constants). The
	// closed-loop mode serves exactly one NN scheme (figret or dote).
	Schemes []string `json:"schemes"`
	// T is the trace length (default 64; the first 75% train, the rest
	// evaluate).
	T int `json:"t,omitempty"`
	// K is the candidate-path count (default 3).
	K int `json:"k,omitempty"`
	// Seed drives the traffic generator and every derived default seed
	// (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SolverIters is the projected-gradient iteration budget of the
	// oracle and the solve-based schemes (default 200; scenarios always
	// use the gradient solver — it is deterministic at every scale).
	SolverIters int `json:"solverIters,omitempty"`
	// Train sizes NN-scheme training (defaults documented on TrainSpec).
	Train *TrainSpec `json:"train,omitempty"`
	// Perturb stresses the evaluation trace (nil = none).
	Perturb *PerturbSpec `json:"perturb,omitempty"`
	// Failures injects mid-series link failures (nil = none). Not
	// supported in closed-loop mode.
	Failures *FailureSpec `json:"failures,omitempty"`
	// Window narrows the evaluated range within the test split.
	Window *WindowSpec `json:"window,omitempty"`
	// Delay is the control-plane installation delay in intervals (fluid
	// and closed-loop modes).
	Delay int `json:"delay,omitempty"`
	// Tolerance overrides the golden-diff relative tolerance for this
	// scenario (default DefaultTolerance).
	Tolerance float64 `json:"tolerance,omitempty"`
}

func (s *Spec) withDefaults() *Spec {
	c := *s
	if c.Scale == "" {
		c.Scale = "fast"
	}
	if c.T == 0 {
		c.T = 64
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SolverIters == 0 {
		c.SolverIters = 200
	}
	t := TrainSpec{}
	if c.Train != nil {
		t = *c.Train
	}
	t = t.withDefaults()
	c.Train = &t
	if c.Perturb != nil {
		p := *c.Perturb
		if p.Seed == 0 {
			p.Seed = c.Seed + 101
		}
		c.Perturb = &p
	}
	if c.Failures != nil {
		f := *c.Failures
		if f.Seed == 0 {
			f.Seed = c.Seed + 77
		}
		c.Failures = &f
	}
	if c.Tolerance == 0 {
		c.Tolerance = DefaultTolerance
	}
	return &c
}

// Validate rejects malformed specs with a descriptive error.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec missing name")
	}
	if strings.ContainsAny(s.Name, "/\\ ") {
		return fmt.Errorf("scenario %s: name must be file-name safe (no slashes or spaces)", s.Name)
	}
	if s.Topo == "" {
		return fmt.Errorf("scenario %s: missing topo", s.Name)
	}
	if _, err := experiments.ParseScale(s.Scale); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	switch s.Mode {
	case ModeOffline, ModeFluid, ModeClosedLoop:
	default:
		return fmt.Errorf("scenario %s: mode %q (want %s|%s|%s)", s.Name, s.Mode, ModeOffline, ModeFluid, ModeClosedLoop)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("scenario %s: no schemes", s.Name)
	}
	seen := map[string]bool{}
	for _, sch := range s.Schemes {
		switch sch {
		case SchemeFIGRET, SchemeDOTE, SchemeDesTE, SchemePredTE, SchemeUniform:
		default:
			return fmt.Errorf("scenario %s: unknown scheme %q", s.Name, sch)
		}
		if seen[sch] {
			return fmt.Errorf("scenario %s: duplicate scheme %q", s.Name, sch)
		}
		seen[sch] = true
	}
	if s.Mode == ModeClosedLoop {
		if len(s.Schemes) != 1 || (s.Schemes[0] != SchemeFIGRET && s.Schemes[0] != SchemeDOTE) {
			return fmt.Errorf("scenario %s: closed-loop mode serves exactly one NN scheme (figret or dote)", s.Name)
		}
		if s.Failures != nil {
			return fmt.Errorf("scenario %s: failure injection is not supported in closed-loop mode", s.Name)
		}
	}
	if s.Failures != nil && s.Failures.Count < 1 {
		return fmt.Errorf("scenario %s: failures.count %d must be >= 1", s.Name, s.Failures.Count)
	}
	if s.Failures != nil && s.Failures.At < 0 {
		return fmt.Errorf("scenario %s: failures.at %d must be >= 0", s.Name, s.Failures.At)
	}
	if s.Perturb != nil && s.Perturb.Alpha <= 0 {
		return fmt.Errorf("scenario %s: perturb.alpha %v must be > 0", s.Name, s.Perturb.Alpha)
	}
	if s.Window != nil && (s.Window.From < 0 || (s.Window.To != 0 && s.Window.To <= s.Window.From)) {
		return fmt.Errorf("scenario %s: bad window [%d,%d)", s.Name, s.Window.From, s.Window.To)
	}
	if s.Delay < 0 {
		return fmt.Errorf("scenario %s: negative delay %d", s.Name, s.Delay)
	}
	// Sizes: 0 selects the documented default; a negative one would reach
	// nn.NewDense or the solver's iteration loop as-is.
	if s.SolverIters < 0 {
		return fmt.Errorf("scenario %s: solverIters %d must be >= 0", s.Name, s.SolverIters)
	}
	if t := s.Train; t != nil {
		if t.H < 0 {
			return fmt.Errorf("scenario %s: train.h %d must be >= 0", s.Name, t.H)
		}
		if t.Epochs < 0 {
			return fmt.Errorf("scenario %s: train.epochs %d must be >= 0", s.Name, t.Epochs)
		}
		if t.BatchSize < 0 {
			return fmt.Errorf("scenario %s: train.batchSize %d must be >= 0", s.Name, t.BatchSize)
		}
		for _, w := range t.Hidden {
			if w < 1 {
				return fmt.Errorf("scenario %s: train.hidden width %d must be >= 1", s.Name, w)
			}
		}
	}
	if s.Tolerance < 0 {
		return fmt.Errorf("scenario %s: negative tolerance %v", s.Name, s.Tolerance)
	}
	return nil
}

// ParseSpec decodes and validates one spec. Unknown fields are errors, so
// a typo in a suite file fails loudly instead of silently selecting a
// default.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSuite reads every *.json spec under dir, validates each, checks
// name uniqueness and returns the suite sorted by name — the canonical
// order output listing uses.
func LoadSuite(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs under %s", dir)
	}
	sort.Strings(paths)
	specs := make([]*Spec, 0, len(paths))
	byName := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		s, err := ParseSpec(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if prev, ok := byName[s.Name]; ok {
			return nil, fmt.Errorf("scenario: duplicate name %q in %s and %s", s.Name, prev, p)
		}
		byName[s.Name] = p
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}
