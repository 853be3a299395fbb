package serve

import "time"

// Metrics is one topology's serving counters as the JSON metrics
// endpoint renders them. Every number is read from the controller's obs
// instruments — the same series the Prometheus page exports — so the two
// endpoints cannot disagree.
type Metrics struct {
	// Snapshots is the number of demand snapshots ingested.
	Snapshots uint64 `json:"snapshots"`
	// Decisions is the number of routing decisions published.
	Decisions uint64 `json:"decisions"`
	// Coalesced counts ingested snapshots that entered the demand window
	// without their own decision because newer snapshots were already
	// queued (async burst coalescing).
	Coalesced uint64 `json:"coalesced"`
	// Retrains counts drift-triggered retrains that swapped a checkpoint
	// in; RetrainsRejected counts candidates that lost the shadow
	// evaluation; RetrainsFailed counts retrains that errored outright
	// (training, shadow scoring or install), with the most recent error
	// in LastRetrainError.
	Retrains         uint64 `json:"retrains"`
	RetrainsRejected uint64 `json:"retrains_rejected"`
	RetrainsFailed   uint64 `json:"retrains_failed,omitempty"`
	LastRetrainError string `json:"last_retrain_error,omitempty"`
	// DecisionsPerSec is Decisions over the controller's uptime.
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// P50/P99 are decision-latency quantiles in microseconds over every
	// decision since the controller started, read from the latency
	// histogram (obs.Histogram.Quantile): the upper bound of the ×2 bucket
	// holding the nearest-rank decision, so never under-reported and at
	// most 2× the exact value (0 before any decision).
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// ConfigError reports a standing misconfiguration that prevents
	// decisions (e.g. a history cap below the active checkpoint's
	// window) — the only way async ingesters, which never see per-request
	// errors, learn why routing is stuck on the fallback. Cleared by the
	// next successful decision.
	ConfigError string `json:"config_error,omitempty"`
}

// Metrics returns a snapshot of the serving counters. It reads atomics
// only, so a scrape never stalls the decision path.
func (c *Controller) Metrics() Metrics {
	tt := c.tel
	out := Metrics{
		Snapshots:        tt.snapshots.Value(),
		Decisions:        tt.decisions.Value(),
		Coalesced:        tt.coalesced.Value(),
		Retrains:         tt.retrains["accepted"].Value(),
		RetrainsRejected: tt.retrains["rejected"].Value(),
		RetrainsFailed:   tt.retrains["failed"].Value(),
		P50Micros:        tt.latency.Quantile(0.50) * 1e6,
		P99Micros:        tt.latency.Quantile(0.99) * 1e6,
	}
	if msg := c.lastRetrainErr.Load(); msg != nil {
		out.LastRetrainError = *msg
	}
	if msg := c.configErr.Load(); msg != nil {
		out.ConfigError = *msg
	}
	if elapsed := time.Since(c.start).Seconds(); elapsed > 0 {
		out.DecisionsPerSec = float64(out.Decisions) / elapsed
	}
	return out
}
