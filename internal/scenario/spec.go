// Package scenario is the declarative scenario-matrix subsystem: a Spec
// names one cell of the paper's evaluation space — (topology × traffic
// model × perturbation × failure pattern × scheme set × evaluation mode)
// — in JSON, a Runner executes whole suites of cells on a worker pool
// that shares one substrate (path set, trace, oracle caches, trained
// models) per (topology, trace length) across cells, and a checksummed
// golden-metrics store with an exact Compare turns the suite into a
// regression gate: any change that moves a scenario's MLU, loss or
// latency by even one ulp fails CI until it is re-blessed.
//
// A spec declares only what the suite varies. Scale, path count, seeds,
// solver budget, training sizes and the evaluated window (always the
// test split) are package constants, so a spec file that sets one of
// them is rejected as an unknown field.
//
// Determinism contract: a Spec's Metrics are a pure function of the spec
// alone — every random draw (traffic, perturbation, failure sampling,
// model initialization) has a fixed seed, the evaluation engine is
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
// environment's training split with the train* constants below; the rest
// are training-free.
const (
	SchemeFIGRET  = "figret"
	SchemeDOTE    = "dote"
	SchemeDesTE   = "deste"
	SchemePredTE  = "predte"
	SchemeUniform = "uniform"
)

// The values every spec shares. No suite spec varies them, so they are
// constants and not spec fields: scenario cells are regression probes
// sized for every-push CI (fast-scale topologies, short traces, 2-epoch
// training), not paper-grade runs.
const (
	// defaultT is the trace length of a spec that sets no t: the first
	// 75% trains, the rest is the evaluated window.
	defaultT = 64
	// pathK is the candidate-path count per pair.
	pathK = 3
	// traceSeed drives the traffic generator and model initialization.
	traceSeed = 1
	// solverIters is the projected-gradient iteration budget of the
	// oracle and the solve-based schemes. Scenarios always use the
	// gradient solver: it is deterministic at every scale.
	solverIters = 200
	// NN-scheme training: history window, FIGRET's robustness weight,
	// pass count and minibatch size. The MLP is two hidden layers of 32.
	trainH      = 6
	trainGamma  = 1
	trainEpochs = 2
	trainBatch  = 16
	// perturbSeed drives the noise draw of a perturbed spec, failureSeed
	// the failure sampling of a spec with failures.
	perturbSeed = traceSeed + 101
	failureSeed = traceSeed + 77
)

// PerturbSpec adds Table 3 / Table 5 style stress noise to the
// evaluation trace: additive Gaussian noise Alpha·N(0, σ²_sd) per pair,
// where σ_sd is measured on the training split.
type PerturbSpec struct {
	// Alpha scales the per-pair noise.
	Alpha float64 `json:"alpha"`
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
	// At is the offset within the evaluation window at which the failure
	// hits (default 0: failed from the first evaluated snapshot).
	At int `json:"at,omitempty"`
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
	// Mode is one of ModeOffline, ModeFluid, ModeClosedLoop.
	Mode string `json:"mode"`
	// Schemes lists the evaluated schemes (Scheme* constants). The
	// closed-loop mode serves exactly one NN scheme (figret or dote).
	Schemes []string `json:"schemes"`
	// T is the trace length (default 64; the first 75% train, the rest
	// evaluate).
	T int `json:"t,omitempty"`
	// Perturb stresses the evaluation trace (nil = none).
	Perturb *PerturbSpec `json:"perturb,omitempty"`
	// Failures injects mid-series link failures (nil = none). Not
	// supported in closed-loop mode.
	Failures *FailureSpec `json:"failures,omitempty"`
	// Delay is the control-plane installation delay in intervals (fluid
	// and closed-loop modes; it must be shorter than the evaluated
	// window).
	Delay int `json:"delay,omitempty"`
	// Tolerance is not part of a spec: the golden gate is exact, and a
	// spec file that sets "tolerance" is rejected as an unknown field.
	// The field stays only because the benchmark module still reads it.
	Tolerance float64 `json:"-"`
}

func (s *Spec) withDefaults() *Spec {
	c := *s
	if c.T == 0 {
		c.T = defaultT
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
	if s.Delay < 0 {
		return fmt.Errorf("scenario %s: negative delay %d", s.Name, s.Delay)
	}
	if s.Delay > 0 && s.Mode == ModeOffline {
		return fmt.Errorf("scenario %s: delay %d has no effect in offline mode", s.Name, s.Delay)
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
