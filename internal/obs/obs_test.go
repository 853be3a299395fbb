package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("y", "help", L("topology", "geant"))
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Same name, different labels: distinct series, same family.
	g2 := r.Gauge("y", "help", L("topology", "pod"))
	if g2 == g {
		t.Fatal("distinct label sets shared a series")
	}
}

// TestNilInstrumentsAreInert is the nil-receiver contract (DESIGN.md §12)
// as behaviour: every exported method of every instrument type, called on a
// nil receiver with zero-valued arguments, neither panics nor returns
// anything but zero values. Methods are found by reflection, so one added
// later is covered without touching this test.
func TestNilInstrumentsAreInert(t *testing.T) {
	for _, nilPtr := range []any{(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Tracer)(nil)} {
		v := reflect.ValueOf(nilPtr)
		if v.NumMethod() == 0 {
			t.Fatalf("%T has no exported methods", nilPtr)
		}
		for i := 0; i < v.NumMethod(); i++ {
			m, name := v.Method(i), v.Type().Method(i).Name
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			for _, out := range m.Call(args) { // a panic fails the test with its stack
				if !out.IsZero() {
					t.Errorf("(%T)(nil).%s returned %v, want the zero value", nilPtr, name, out)
				}
			}
		}
	}
	// The span a nil Tracer starts is the zero Span, itself inert.
	var tr *Tracer
	s := tr.Start()
	s.Mark(0)
	if s.ID() != 0 {
		t.Fatal("a nil tracer's span must read as zero")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name under two types must panic")
		}
	}()
	r.Gauge("z_total", "help")
}

// TestHistogramBucketBoundaries pins the bucket-assignment contract: an
// observation equal to a bound lands in that bound's bucket (le is an
// inclusive upper bound), one just above lands in the next, and
// overflow lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{0.001, 0.01, 0.1})

	h.Observe(0.001)                    // == bound 0 → bucket 0
	h.Observe(math.Nextafter(0.001, 1)) // just above → bucket 1
	h.Observe(0.0005)                   // below first bound → bucket 0
	h.Observe(0.1)                      // == last bound → bucket 2
	h.Observe(5)                        // above all bounds → +Inf

	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	wantSum := 0.001 + math.Nextafter(0.001, 1) + 0.0005 + 0.1 + 5
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// TestHistogramQuantile pins the bucket-upper-bound estimate: fixed
// cases, then on random samples over the ×2 default buckets the estimate
// brackets the exact nearest-rank value from above within one factor.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	for _, c := range []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.99, 0},
		{"single bucket", []float64{1.5, 1.5, 1.5}, 0.5, 2},
		{"nearest rank stays below the tail", []float64{0.5, 0.5, 0.5, 3}, 0.75, 1},
		{"nearest rank reaches the tail", []float64{0.5, 0.5, 0.5, 3}, 0.76, 4},
		{"q=1 is the maximum's bucket", []float64{0.5, 3}, 1, 4},
		{"overflow bucket saturates", []float64{100, 100}, 0.5, 4},
		{"overflow only in the tail", []float64{1, 1, 1, 100}, 0.5, 1},
	} {
		h := NewRegistry().Histogram("q", "help", bounds)
		for _, v := range c.obs {
			h.Observe(v)
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	if got := NewRegistry().Histogram("inf_only", "help", nil).Quantile(0.5); got != 0 {
		t.Errorf("no finite bucket: Quantile = %v, want 0", got)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		h := NewRegistry().Histogram("lat", "help", DefaultLatencyBuckets())
		samples := make([]float64, 1+rng.Intn(500))
		for i := range samples {
			// Log-uniform over 10µs..10s, inside the finite buckets.
			samples[i] = 10e-6 * math.Pow(1e6, rng.Float64())
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
			exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
			if got := h.Quantile(q); got < exact || got > 2*exact {
				t.Fatalf("n=%d q=%v: Quantile = %v outside [exact, 2·exact] = [%v, %v]",
					len(samples), q, got, exact, 2*exact)
			}
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(10e-6, 2, 4)
	want := []float64{10e-6, 20e-6, 40e-6, 80e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor <= 1 must panic")
		}
	}()
	ExpBuckets(1, 1, 3)
}

// TestConcurrentObservations hammers one histogram and one counter from
// many goroutines while scraping concurrently; totals must be exact and
// the race detector must stay quiet.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", ExpBuckets(1e-6, 4, 8))
	c := r.Counter("n_total", "help")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) * 1e-5)
				c.Inc()
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestTracerSpans(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, "stage_seconds", "help", []string{"a", "b"}, ExpBuckets(1e-9, 10, 12),
		L("topology", "geant"))
	s1 := tr.Start()
	s1.Mark(0)
	s1.Mark(1)
	s2 := tr.Start()
	s2.Mark(1)
	if s1.ID() == 0 || s2.ID() <= s1.ID() {
		t.Fatalf("span IDs not monotonic: %d then %d", s1.ID(), s2.ID())
	}
	if got := tr.stages[0].Count(); got != 1 {
		t.Fatalf("stage a observations = %d, want 1", got)
	}
	if got := tr.stages[1].Count(); got != 2 {
		t.Fatalf("stage b observations = %d, want 2", got)
	}
}

// TestConcurrentRegistration has two goroutines register the same new
// Counter, Gauge and Histogram series while a third renders the registry,
// over many fresh registries. Both registrants must get the same
// instrument, and the race detector must stay quiet: a series'
// instrument is created and read only under its family's lock.
func TestConcurrentRegistration(t *testing.T) {
	type got struct {
		c *Counter
		g *Gauge
		h *Histogram
	}
	bounds := ExpBuckets(1, 2, 4)
	for range 200 {
		r := NewRegistry()
		var res [2]got
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				l := Label{Name: "topology", Value: "geant"}
				res[i] = got{
					c: r.Counter("c_total", "help", l),
					g: r.Gauge("g", "help", l),
					h: r.Histogram("h", "help", bounds, l),
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 3 {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
				}
			}
		}()
		close(start)
		wg.Wait()
		if res[0] != res[1] {
			t.Fatalf("two registrations of one series got different instruments: %+v and %+v", res[0], res[1])
		}
	}
}
