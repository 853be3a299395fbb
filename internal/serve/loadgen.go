package serve

import (
	"errors"

	"figret/internal/te"
	"figret/internal/traffic"
)

// LoadOptions configures a load-generation run over the binary stream.
type LoadOptions struct {
	// Requests is the total snapshot count to drive; the trace cycles to
	// fill it (default: one pass over the trace).
	Requests int
	// Async ingests without per-request decisions (burst-coalescing
	// throughput rather than decision throughput).
	Async bool
}

// LoadResult summarizes one load-generation run.
type LoadResult struct {
	// Stream carries the pipelining measurements (RTT quantiles, byte
	// counts).
	Stream StreamStats
	// Bin carries the transport counters (delta vs full decisions,
	// resyncs, redials).
	Bin BinStats
	// DecisionsPerSec is decision responses over elapsed wall clock —
	// the serving data plane's sustained throughput as observed by one
	// pipelined client.
	DecisionsPerSec float64
	// RequestsPerSec counts every response (acks included).
	RequestsPerSec float64
}

// LoadGen drives the server's binary stream at maximum sustainable rate:
// it dials the upgraded protocol, pipelines Requests snapshot ingests
// cycling through the trace, and reports decisions/sec plus the
// transport's delta and RTT statistics. This is the load-generator mode
// behind cmd/served -drive.
func LoadGen(baseURL, topo string, ps *te.PathSet, tr *traffic.Trace, opt LoadOptions) (*LoadResult, error) {
	if tr.Len() == 0 {
		return nil, errors.New("serve: load generation over an empty trace")
	}
	n := opt.Requests
	if n <= 0 {
		n = tr.Len()
	}
	bin, err := DialBin(baseURL, topo, ps, BinClientOptions{})
	if err != nil {
		return nil, err
	}
	defer bin.Close()

	demand := func(i int) []float64 { return tr.At(i % tr.Len()) }
	var stats *StreamStats
	if opt.Async {
		stats, err = bin.StreamAsync(n, demand)
	} else {
		stats, err = bin.Stream(n, demand, nil)
	}
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Stream: *stats, Bin: bin.Stats()}
	if s := stats.Elapsed.Seconds(); s > 0 {
		res.DecisionsPerSec = float64(stats.Decisions) / s
		res.RequestsPerSec = float64(stats.Decisions+stats.Acks) / s
	}
	return res, nil
}
