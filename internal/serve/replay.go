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
	// Decisions holds the server's response per streamed snapshot of
	// [From, To), in order.
	Decisions []*RoutingResponse
	// PerInterval is the fluid-simulation result of every interval served
	// by an installed (possibly stale, per Delay) configuration.
	PerInterval []*netsim.Result
	// MeanMLU, PeakMLU and MeanLoss summarize the simulated intervals.
	MeanMLU, PeakMLU, MeanLoss float64
	// Versions lists the distinct model versions that served, in first-
	// use order — a hot swap mid-replay shows up as a second entry.
	Versions []int
}

// Replay streams tr's snapshots [From, To) through post one at a time
// (synchronous ingest: each call returns the decision for the window
// ending at that snapshot; post is a client's PostSnapshot bound to the
// topology, so the transport is the caller's choice and the decisions
// are the same bitwise over any of them) and closes the loop like
// netsim.ControlLoop: the configuration serving interval t is the
// decision computed after snapshot t-1, delayed by Delay intervals.
// Each served interval is scored with the fluid simulator, so the
// result is directly comparable to an offline control-loop run over the
// same windows — the serving path is benchmarkable and testable
// end-to-end.
func Replay(post func(demand []float64) (*RoutingResponse, error), ps *te.PathSet, tr *traffic.Trace, opt ReplayOptions) (*ReplayResult, error) {
	from, to := opt.From, opt.To
	if to <= 0 || to > tr.Len() {
		to = tr.Len()
	}
	if from < 0 || from >= to {
		return nil, fmt.Errorf("serve: empty replay window [%d,%d) of trace length %d", from, to, tr.Len())
	}
	if opt.Delay < 0 {
		return nil, fmt.Errorf("serve: negative replay delay %d", opt.Delay)
	}
	// The uniform split serves until the first delayed decision lands.
	installed := te.UniformConfig(ps)

	res := &ReplayResult{}
	seen := make(map[int]bool)
	// pending holds one configuration per streamed snapshot not yet
	// serving, oldest first: the one queued after snapshot t starts
	// serving at interval t+1+Delay. A warming answer queues the
	// configuration that would be serving then anyway.
	var pending []*te.Config
	for t := from; t < to; t++ {
		// Interval t is served by whatever is installed when its demand
		// arrives.
		if len(pending) > opt.Delay {
			installed = pending[0]
			pending = pending[1:]
		}
		sim, err := netsim.Simulate(installed, tr.At(t))
		if err != nil {
			return nil, err
		}
		res.PerInterval = append(res.PerInterval, sim)

		// Snapshot t is now revealed: stream it and collect the decision
		// for the window ending at t (it can serve interval t+Delay at the
		// earliest).
		dec, err := post(tr.At(t))
		if err != nil {
			return nil, fmt.Errorf("serve: replay at t=%d: %w", t, err)
		}
		res.Decisions = append(res.Decisions, dec)
		if dec.Warming {
			// No new decision: the network keeps what it would be serving
			// at t+1+Delay anyway, which keeps the queue one entry per
			// snapshot (netsim.ControlLoop queues one per interval too).
			cfg := installed
			if len(pending) > 0 {
				cfg = pending[len(pending)-1]
			}
			pending = append(pending, cfg)
			continue
		}
		cfg, err := decisionConfig(ps, dec.Ratios)
		if err != nil {
			return nil, fmt.Errorf("serve: replay at t=%d: invalid decision: %w", t, err)
		}
		pending = append(pending, cfg)
		if !seen[dec.Version] {
			seen[dec.Version] = true
			res.Versions = append(res.Versions, dec.Version)
		}
	}

	var mluSum, lossSum float64
	for _, r := range res.PerInterval {
		mluSum += r.MLU
		lossSum += r.LossRate
		if r.MLU > res.PeakMLU {
			res.PeakMLU = r.MLU
		}
	}
	n := float64(len(res.PerInterval))
	res.MeanMLU = mluSum / n
	res.MeanLoss = lossSum / n
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
