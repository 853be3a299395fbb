package traffic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTraceBasics(t *testing.T) {
	tr := NewTrace(3)
	if tr.Pairs.Count() != 6 {
		t.Fatalf("pairs = %d", tr.Pairs.Count())
	}
	if err := tr.Append(make([]float64, 6)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(make([]float64, 5)); err == nil {
		t.Error("wrong-size snapshot accepted")
	}
	if tr.Len() != 1 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestAppendCopiesSnapshot(t *testing.T) {
	// A streaming ingester reuses its read buffer between snapshots; the
	// trace must not retain the caller's slice.
	tr := NewTrace(2)
	buf := []float64{1, 2}
	tr.Append(buf)
	buf[0], buf[1] = 77, 88
	tr.Append(buf)
	if got := tr.At(0); got[0] != 1 || got[1] != 2 {
		t.Errorf("snapshot 0 corrupted by buffer reuse: %v", got)
	}
	if got := tr.At(1); got[0] != 77 || got[1] != 88 {
		t.Errorf("snapshot 1 = %v, want [77 88]", got)
	}
}

func TestAppendToViewDoesNotClobberParent(t *testing.T) {
	parent := NewTrace(2)
	for i := 0; i < 5; i++ {
		parent.Append([]float64{float64(i), 0})
	}
	view := parent.Slice(1, 3)
	view.Append([]float64{99, 99})
	// The append must land only in the view: parent snapshot 3 (the entry
	// just past the view) keeps its value, and the parent's length is
	// unchanged.
	if got := parent.At(3)[0]; got != 3 {
		t.Errorf("parent snapshot 3 clobbered by view append: %v", got)
	}
	if parent.Len() != 5 {
		t.Errorf("parent length = %d after view append", parent.Len())
	}
	if view.Len() != 3 || view.At(2)[0] != 99 {
		t.Errorf("view after append: len %d, last %v", view.Len(), view.At(view.Len()-1))
	}
	// Demand entries remain shared parent<->view (the documented view
	// contract): mutation through the view is visible in the parent.
	view.At(0)[1] = 42
	if parent.At(1)[1] != 42 {
		t.Error("view lost snapshot-vector sharing with parent")
	}
}

func TestTraceCloneIndependence(t *testing.T) {
	tr := NewTrace(2)
	tr.Append([]float64{1, 2})
	c := tr.Clone()
	c.Snapshots[0][0] = 99
	if tr.Snapshots[0][0] != 1 {
		t.Error("clone shares storage")
	}
}

func TestSplit(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 10; i++ {
		tr.Append([]float64{float64(i), 0})
	}
	train, test := tr.Split(0.75)
	if train.Len() != 7 || test.Len() != 3 {
		t.Errorf("split = %d/%d, want 7/3", train.Len(), test.Len())
	}
	if test.At(0)[0] != 7 {
		t.Errorf("test starts at %v", test.At(0)[0])
	}
}

func TestWindow(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 5; i++ {
		tr.Append([]float64{float64(i), float64(10 * i)})
	}
	w := tr.Window(3, 2)
	want := []float64{1, 10, 2, 20}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("window = %v, want %v", w, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Window(1,2) should panic")
		}
	}()
	tr.Window(1, 2)
}

func TestWindowInto(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 5; i++ {
		tr.Append([]float64{float64(i), float64(10 * i)})
	}
	buf := make([]float64, 4)
	buf[0] = 99 // stale content must be overwritten
	got := tr.WindowInto(buf, 3, 2)
	if &got[0] != &buf[0] {
		t.Fatal("WindowInto did not reuse dst")
	}
	want := tr.Window(3, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WindowInto = %v, Window = %v", got, want)
		}
	}
	for name, fn := range map[string]func(){
		"bad t":    func() { tr.WindowInto(buf, 1, 2) },
		"bad size": func() { tr.WindowInto(make([]float64, 3), 3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPeakMatrix(t *testing.T) {
	tr := NewTrace(2)
	tr.Append([]float64{1, 9})
	tr.Append([]float64{5, 2})
	tr.Append([]float64{3, 3})
	p := tr.PeakMatrix(3, 2) // over snapshots 1,2
	if p[0] != 5 || p[1] != 3 {
		t.Errorf("peak = %v, want [5 3]", p)
	}
	p = tr.PeakMatrix(1, 5) // clamps to start
	if p[0] != 1 || p[1] != 9 {
		t.Errorf("peak = %v, want [1 9]", p)
	}
}

func TestVariancesExact(t *testing.T) {
	tr := NewTrace(2)
	tr.Append([]float64{1, 5})
	tr.Append([]float64{3, 5})
	v := tr.Variances()
	if math.Abs(v[0]-1) > 1e-12 { // mean 2, deviations ±1
		t.Errorf("var[0] = %v, want 1", v[0])
	}
	if v[1] != 0 {
		t.Errorf("var[1] = %v, want 0", v[1])
	}
	nv := tr.NormalizedVariances()
	if nv[0] != 1 || nv[1] != 0 {
		t.Errorf("normalized = %v", nv)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if c := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); math.Abs(c-1) > 1e-12 {
		t.Errorf("identical = %v", c)
	}
	if c := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Errorf("orthogonal = %v", c)
	}
	if c := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); c != 0 {
		t.Errorf("zero vector = %v", c)
	}
	if c := CosineSimilarity([]float64{2, 2}, []float64{5, 5}); math.Abs(c-1) > 1e-12 {
		t.Errorf("parallel = %v", c)
	}
}

func TestWindowSimilaritiesStableVsBursty(t *testing.T) {
	stable, err := Gravity(6, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := DC(ToRWEB, 6, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss := Summarize(stable.WindowSimilarities(12))
	bs := Summarize(bursty.WindowSimilarities(12))
	if ss.Median <= bs.Median {
		t.Errorf("stable median %v should exceed bursty %v", ss.Median, bs.Median)
	}
	if ss.Median < 0.99 {
		t.Errorf("gravity traffic should be near-identical over time, median %v", ss.Median)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Errorf("median = %v", q)
	}
	// Input not mutated.
	if xs[0] != 4 {
		t.Error("Quantile sorted its input")
	}
}

func TestPearsonEdgeCases(t *testing.T) {
	if c := Pearson([]float64{1, 2}, []float64{1}); c != 0 {
		t.Errorf("length mismatch = %v", c)
	}
	if c := Pearson([]float64{1, 1}, []float64{2, 3}); c != 0 {
		t.Errorf("constant series = %v", c)
	}
	if c := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", c)
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if r := SpearmanRank(a, b); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone increasing = %v", r)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if r := SpearmanRank(a, rev); math.Abs(r+1) > 1e-12 {
		t.Errorf("monotone decreasing = %v", r)
	}
	if r := SpearmanRank(a, []float64{1}); r != 0 {
		t.Errorf("length mismatch = %v", r)
	}
	tied := []float64{1, 1, 1, 1, 1}
	if r := SpearmanRank(a, tied); r != 0 {
		t.Errorf("constant sample = %v", r)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := DC(ToRDB, 5, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DC(ToRDB, 5, 50, 42)
	for i := range a.Snapshots {
		for j := range a.Snapshots[i] {
			if a.Snapshots[i][j] != b.Snapshots[i][j] {
				t.Fatalf("nondeterministic at (%d,%d)", i, j)
			}
		}
	}
	c, _ := DC(ToRDB, 5, 50, 43)
	same := true
	for i := range a.Snapshots {
		for j := range a.Snapshots[i] {
			if a.Snapshots[i][j] != c.Snapshots[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{N: 1, T: 10}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Generate(GenConfig{N: 3, T: 0}); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := Generate(GenConfig{N: 3, T: 1, BurstyFraction: 2}); err == nil {
		t.Error("BurstyFraction=2 accepted")
	}
	if _, err := DC(DCProfile(99), 3, 1, 0); err == nil {
		t.Error("bad profile accepted")
	}
	if _, err := PFabric(PFabricConfig{N: 1, T: 5}); err == nil {
		t.Error("pfabric N=1 accepted")
	}
	if _, err := ForTopology("nope", 3, 1, 0); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestGeneratePositivity(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := DC(PoDWEB, 4, 30, seed)
		if err != nil {
			return false
		}
		for _, s := range tr.Snapshots {
			for _, v := range s {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBurstinessOrdering(t *testing.T) {
	// The Figure 4 property: WAN more stable than PoD, PoD more stable
	// than ToR, measured by the 25th percentile of window similarity.
	n, T, H := 8, 200, 12
	wan, err := WAN(n, T, 3)
	if err != nil {
		t.Fatal(err)
	}
	pod, err := DC(PoDDB, n, T, 3)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := DC(ToRDB, n, T, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := Quantile(wan.WindowSimilarities(H), 0.25)
	p := Quantile(pod.WindowSimilarities(H), 0.25)
	r := Quantile(tor.WindowSimilarities(H), 0.25)
	if !(w > p && p > r) {
		t.Errorf("burstiness ordering broken: wan %v, pod %v, tor %v", w, p, r)
	}
}

func TestPFabricTrace(t *testing.T) {
	tr, err := PFabric(PFabricConfig{N: 9, T: 50, Seed: 1, ArrivalRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("len = %d", tr.Len())
	}
	total := 0.0
	for _, s := range tr.Snapshots {
		for _, v := range s {
			if v < 0 {
				t.Fatal("negative demand")
			}
			total += v
		}
	}
	if total == 0 {
		t.Error("pfabric trace empty")
	}
}

func TestPerturbZeroAlphaIsIdentity(t *testing.T) {
	tr, _ := DC(PoDDB, 4, 30, 9)
	out := Perturb(tr, tr, 0, 1)
	for i := range tr.Snapshots {
		for j := range tr.Snapshots[i] {
			if out.Snapshots[i][j] != tr.Snapshots[i][j] {
				t.Fatal("alpha=0 changed the trace")
			}
		}
	}
}

func TestPerturbGrowsWithAlpha(t *testing.T) {
	tr, _ := DC(PoDDB, 4, 100, 9)
	small := Perturb(tr, tr, 0.2, 7)
	big := Perturb(tr, tr, 2.0, 7)
	dev := func(a, b *Trace) float64 {
		s := 0.0
		for i := range a.Snapshots {
			for j := range a.Snapshots[i] {
				s += math.Abs(a.Snapshots[i][j] - b.Snapshots[i][j])
			}
		}
		return s
	}
	if dev(big, tr) <= dev(small, tr) {
		t.Error("larger alpha should deviate more")
	}
	// Original untouched, outputs non-negative.
	for i := range big.Snapshots {
		for j := range big.Snapshots[i] {
			if big.Snapshots[i][j] < 0 {
				t.Fatal("negative demand after perturbation")
			}
		}
	}
}

func TestWorstCaseReversesRanking(t *testing.T) {
	// Build a trace where pair 0 is volatile and pair 1 constant; worst-case
	// perturbation must hit pair 1 harder than Perturb does.
	tr := NewTrace(2)
	for i := 0; i < 200; i++ {
		v := 1.0
		if i%2 == 0 {
			v = 9
		}
		tr.Append([]float64{v, 5})
	}
	sig := tr.Stddevs()
	if !(sig[0] > sig[1]) {
		t.Fatal("setup broken")
	}
	rev := reverseRankMap(sig)
	if !(rev[1] > rev[0]) {
		t.Errorf("reverse map = %v, expected pair 1 to get the larger sigma", rev)
	}
	if rev[1] != sig[0] || rev[0] != sig[1] {
		t.Errorf("reverse map should swap values: %v vs %v", rev, sig)
	}
}

func TestReverseRankMapPermutation(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 13)
		s := seed
		for i := range xs {
			s = s*6364136223846793005 + 1442695040888963407
			xs[i] = float64(uint64(s)%1000) / 7
		}
		rev := reverseRankMap(xs)
		// Must be a permutation of xs: same multiset.
		a := append([]float64(nil), xs...)
		b := append([]float64(nil), rev...)
		sortFloats(a)
		sortFloats(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestForTopologyAll(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"geant", 23}, {"uscarrier", 10}, {"cogentco", 10}, {"pfabric", 9},
		{"pod-db", 4}, {"pod-web", 8}, {"tor-db", 12}, {"tor-web", 12},
	} {
		tr, err := ForTopology(c.name, c.n, 20, 1)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if tr.Len() != 20 {
			t.Errorf("%s: len %d", c.name, tr.Len())
		}
	}
}

func TestScaleAndMaxDemand(t *testing.T) {
	tr := NewTrace(2)
	tr.Append([]float64{1, 2})
	tr.Scale(3)
	if tr.Snapshots[0][1] != 6 {
		t.Errorf("scale failed: %v", tr.Snapshots[0])
	}
}

// TestReverseRankMapTies pins tie handling: equal values rank by ascending
// pair index, so the reversed assignment is a pure function of the input.
func TestReverseRankMapTies(t *testing.T) {
	xs := []float64{2, 1, 1, 3}
	// Ascending ranks with index tie-break: 1(idx1), 1(idx2), 2(idx0),
	// 3(idx3); reversing hands idx1 the value at rank 3, idx2 rank 2, etc.
	want := []float64{1, 3, 2, 1}
	for trial := 0; trial < 10; trial++ {
		got := reverseRankMap(xs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: reverseRankMap(%v) = %v, want %v", trial, xs, got, want)
			}
		}
	}
}

// TestWorstCasePerturbDeterministicWithTies is the regression test for the
// duplicated-stddev case: two pairs with identical histories (equal sigma)
// must not make WorstCasePerturb's output depend on sort internals.
func TestWorstCasePerturbDeterministicWithTies(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 120; i++ {
		v := 1.0
		if i%2 == 0 {
			v = 7
		}
		// Pairs 0 and 1 are bitwise identical histories (tied sigma);
		// pair 2 is constant.
		tr.Append([]float64{v, v, 3})
	}
	sig := tr.Stddevs()
	if sig[0] != sig[1] {
		t.Fatalf("setup: sigmas %v should tie", sig)
	}
	want := WorstCasePerturb(tr, tr, 0.5, 11)
	for trial := 0; trial < 5; trial++ {
		got := WorstCasePerturb(tr, tr, 0.5, 11)
		for s := range want.Snapshots {
			for i := range want.Snapshots[s] {
				if got.Snapshots[s][i] != want.Snapshots[s][i] {
					t.Fatalf("trial %d: snapshot %d pair %d differs: %v vs %v",
						trial, s, i, got.Snapshots[s][i], want.Snapshots[s][i])
				}
			}
		}
	}
	// The constant pair receives the tied maximum; the tied pairs split
	// the remaining {sigma, 0} deterministically by index.
	rev := reverseRankMap(sig)
	if rev[2] != sig[0] {
		t.Errorf("stable pair should receive the tied maximum: rev=%v sig=%v", rev, sig)
	}
	if rev[0] != sig[0] || rev[1] != 0 {
		t.Errorf("tied pairs should split {sigma, 0} by index: rev=%v sig=%v", rev, sig)
	}
}
