package serve

import (
	"fmt"
	"math"

	"figret/internal/netsim"
	"figret/internal/te"
	"figret/internal/traffic"
)

// ReplayOptions configures a closed-loop trace replay against a serving
// API.
type ReplayOptions struct {
	// From, To is the half-open snapshot range of the trace to stream
	// (To <= 0 or > Len is clamped to the trace length).
	From, To int
	// Delay is the control-plane installation delay in intervals, with
	// netsim.ControlLoop semantics: the decision computed from the window
	// ending at snapshot t starts forwarding traffic at interval
	// t+1+Delay. With Delay 0 the freshest decision serves each interval
	// (interval t is served by the decision that saw everything up to
	// t-1).
	Delay int
}

// ReplayResult aggregates a closed-loop replay.
type ReplayResult struct {
	// LoopResult is the fluid-simulation result of every interval of
	// [From, To), each served by the configuration installed then
	// (possibly stale, per Delay), with its MLU and loss summary.
	netsim.LoopResult
	// Decisions holds the server's response per streamed snapshot of
	// [From, To), in order.
	Decisions []*RoutingResponse
	// Versions lists the distinct model versions that answered, in
	// first-answer order — a hot swap mid-replay shows up as a second
	// entry. It counts every answer, including the last snapshot's and
	// any still in the delay pipeline at To, which served no interval.
	Versions []int
}

// Replay streams tr's snapshots [From, To) through post one at a time
// (synchronous ingest: each call returns the decision for the window
// ending at that snapshot; post is a client's PostSnapshot bound to the
// topology, so the transport is the caller's choice and the decisions
// are the same bitwise over any of them) and is the advisor of a
// netsim.ControlLoop: the advice for interval t is the decision
// answered after posting snapshot t-1, the uniform split at From, and
// the previous advice after a warming answer. A trailing post of
// snapshot To-1 keeps Decisions at one entry per streamed snapshot. The
// result is an offline control-loop run over the same windows — the
// serving path is benchmarkable and testable end-to-end.
func Replay(post func(demand []float64) (*RoutingResponse, error), ps *te.PathSet, tr *traffic.Trace, opt ReplayOptions) (*ReplayResult, error) {
	from, to := opt.From, opt.To
	if to <= 0 || to > tr.Len() {
		to = tr.Len()
	}
	if from < 0 || from >= to {
		return nil, fmt.Errorf("serve: empty replay window [%d,%d) of trace length %d", from, to, tr.Len())
	}
	res := &ReplayResult{}
	seen := make(map[int]bool)
	advice := te.UniformConfig(ps)
	// stream posts snapshot s; a decision replaces the advice, a warming
	// answer keeps it.
	stream := func(s int) error {
		dec, err := post(tr.At(s))
		if err != nil {
			return fmt.Errorf("serve: replay snapshot %d: %w", s, err)
		}
		res.Decisions = append(res.Decisions, dec)
		if dec.Warming {
			return nil
		}
		if advice, err = decisionConfig(ps, dec.Ratios); err != nil {
			return fmt.Errorf("serve: replay snapshot %d: invalid decision: %w", s, err)
		}
		if !seen[dec.Version] {
			seen[dec.Version] = true
			res.Versions = append(res.Versions, dec.Version)
		}
		return nil
	}
	loop := &netsim.ControlLoop{
		Advise: func(t int) (*te.Config, error) {
			if t > from {
				if err := stream(t - 1); err != nil {
					return nil, err
				}
			}
			return advice, nil
		},
		Delay:   opt.Delay,
		Initial: advice,
	}
	lr, err := loop.Run(tr.At, from, to)
	if err != nil {
		return nil, err
	}
	res.LoopResult = *lr
	if err := stream(to - 1); err != nil {
		return nil, err
	}
	return res, nil
}

// decisionConfig wraps served ratios in a te.Config. It cannot use
// te.Config.Validate: a rerouted decision legitimately leaves a fully
// disconnected pair's ratios all zero (te.Reroute's documented policy),
// which Validate's sum-to-1 check would reject. Pair sums must instead
// be 1 or 0.
func decisionConfig(ps *te.PathSet, ratios []float64) (*te.Config, error) {
	if len(ratios) != ps.NumPaths() {
		return nil, fmt.Errorf("serve: decision has %d ratios, path set %d", len(ratios), ps.NumPaths())
	}
	cfg := te.NewConfig(ps)
	copy(cfg.R, ratios)
	for pi, pp := range ps.PairPaths {
		var sum float64
		for _, p := range pp {
			r := cfg.R[p]
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				return nil, fmt.Errorf("serve: decision ratio[%d] = %v invalid", p, r)
			}
			sum += r
		}
		if math.Abs(sum-1) > 1e-6 && sum != 0 {
			return nil, fmt.Errorf("serve: decision pair %d ratios sum to %v, want 1 (or 0 if disconnected)", pi, sum)
		}
	}
	return cfg, nil
}
