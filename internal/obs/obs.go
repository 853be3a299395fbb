// Package obs is the production observability layer: a dependency-free
// typed metric registry (counters, gauges, histograms with fixed
// exponential buckets) exported in Prometheus text exposition format,
// lightweight span tracing with monotonic span IDs recorded as
// per-stage latency histograms, and an ops HTTP handler serving
// /metrics, /healthz, /readyz and /debug/pprof.
//
// The design goal is provably-zero impact on the paths it observes:
// every instrument method is safe on a nil receiver (a disabled
// instrument costs one branch), the hot-path operations are single
// atomic updates (no locks, no allocations), and nothing in this
// package ever touches decision state — it only counts and times.
//
// Metric naming follows the Prometheus conventions: a `figret_` prefix,
// `_total` suffix on counters, base units in names
// (`..._duration_seconds`, `..._bytes`), and label dimensions for
// topology, stage, transport and outcome rather than name explosions.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind is the exported TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and hands out instruments. Instrument
// registration is idempotent: asking twice for the same (name, labels)
// returns the same instrument, so call sites never need to coordinate.
// Registering one name under two different types is a programming error
// and panics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is all series sharing one metric name (one HELP/TYPE pair).
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*series // keyed by canonical label rendering
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // canonical rendering, e.g. `topology="geant"`
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // counterFunc / gaugeFunc read at scrape
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// get returns the series for labels, creating it on first use. The caller
// holds f.mu, under which a series' instrument is created, replaced and
// read (family.write), so two goroutines registering one new series get
// one instrument.
func (f *family) get(labels []Label) *series {
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// renderLabels canonicalizes a label set: sorted by name, values escaped
// per the exposition format (backslash, double-quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// --- counter ------------------------------------------------------------

// Counter is a monotonically increasing count. All methods are safe on a
// nil receiver (no-ops), so disabled telemetry costs one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.get(labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from f at scrape
// time (for sources that already keep their own monotonic counts, like
// cache hit counters). Re-registering the same (name, labels) replaces
// the function.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	fam := r.family(name, help, kindCounter)
	fam.mu.Lock()
	defer fam.mu.Unlock()
	fam.get(labels).fn = f
}

// --- gauge --------------------------------------------------------------

// Gauge is a value that can go up and down. Safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (atomically, CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, kindGauge)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.get(labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	fam := r.family(name, help, kindGauge)
	fam.mu.Lock()
	defer fam.mu.Unlock()
	fam.get(labels).fn = f
}

// --- histogram ----------------------------------------------------------

// Histogram counts observations into fixed buckets (cumulative at
// export, per the Prometheus histogram contract). Observe is a binary
// search plus two atomic updates — no locks, no allocations. Safe on a
// nil receiver.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets, in
	// increasing order; an implicit +Inf bucket follows.
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, non-cumulative
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// ExpBuckets returns n exponential bucket upper bounds: start,
// start*factor, ..., start*factor^(n-1). It panics on a non-positive
// start, a factor ≤ 1 or n < 1 (programming errors).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefaultLatencyBuckets spans 10µs to ~84s in ×2 steps — wide enough
// for both in-process decision stages (tens of µs) and full transport
// round trips.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(10e-6, 2, 23) }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns an upper estimate of the q'th quantile (0 < q ≤ 1)
// over every observation since the histogram was created: the upper
// bound of the bucket holding the nearest-rank (ceil(q·n)) observation,
// so it never under-reports and is within one bucket factor of the exact
// value. Observations in the +Inf bucket report the largest finite
// bound, so the result is always finite. 0 before any observation, with
// no finite bucket, or on nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	// Counts only grow, so this second pass reaches rank no later than the
	// first pass's total did, even with observations landing in between.
	var cum uint64
	for i, bound := range h.bounds {
		if cum += h.counts[i].Load(); cum >= rank {
			return bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Histogram returns the histogram for (name, labels) with the given
// finite bucket bounds (strictly increasing; a +Inf bucket is implicit),
// creating it on first use. The bounds of an existing histogram are kept
// (first registration wins).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not increasing at %d", name, i))
		}
	}
	f := r.family(name, help, kindHistogram)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.get(labels)
	if s.h == nil {
		s.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.h
}
