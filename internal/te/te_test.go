package te

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"figret/internal/graph"
)

func TestPairsRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 23} {
		p := NewPairs(n)
		if p.Count() != n*(n-1) {
			t.Fatalf("n=%d Count=%d", n, p.Count())
		}
		seen := make([]bool, p.Count())
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				idx := p.Index(s, d)
				if seen[idx] {
					t.Fatalf("n=%d duplicate index %d for (%d,%d)", n, idx, s, d)
				}
				seen[idx] = true
				gs, gd := p.SD(idx)
				if gs != s || gd != d {
					t.Fatalf("n=%d SD(Index(%d,%d)) = (%d,%d)", n, s, d, gs, gd)
				}
			}
		}
	}
}

func TestPairsPanics(t *testing.T) {
	p := NewPairs(3)
	for _, c := range [][2]int{{0, 0}, {-1, 1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%d,%d) should panic", c[0], c[1])
				}
			}()
			p.Index(c[0], c[1])
		}()
	}
}

func trianglePS(t *testing.T) *PathSet {
	t.Helper()
	ps, err := NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestPathSetTriangle(t *testing.T) {
	ps := trianglePS(t)
	if ps.Pairs.Count() != 6 {
		t.Fatalf("pairs = %d", ps.Pairs.Count())
	}
	// Each pair in a triangle has exactly 2 simple paths.
	if ps.NumPaths() != 12 {
		t.Fatalf("paths = %d, want 12", ps.NumPaths())
	}
	for pi, pp := range ps.PairPaths {
		if len(pp) != 2 {
			t.Errorf("pair %d has %d paths", pi, len(pp))
		}
		// First path is the direct one (1 hop).
		if len(ps.Paths[pp[0]]) != 2 {
			t.Errorf("pair %d first path not direct: %v", pi, ps.Paths[pp[0]])
		}
		if ps.Cap[pp[0]] != 2 {
			t.Errorf("pair %d direct cap = %v", pi, ps.Cap[pp[0]])
		}
	}
}

// demand builds the Figure 3 demand vector: A->B, A->C, B->C.
func fig3Demand(ps *PathSet, ab, ac, bc float64) []float64 {
	d := make([]float64, ps.Pairs.Count())
	d[ps.Pairs.Index(0, 1)] = ab
	d[ps.Pairs.Index(0, 2)] = ac
	d[ps.Pairs.Index(1, 2)] = bc
	return d
}

// setRatio sets the split of pair (s,d): direct path gets rDirect, two-hop
// gets 1-rDirect.
func setRatio(ps *PathSet, c *Config, s, d int, rDirect float64) {
	pp := ps.PairPaths[ps.Pairs.Index(s, d)]
	for _, p := range pp {
		if len(ps.Paths[p]) == 2 {
			c.R[p] = rDirect
		} else {
			c.R[p] = 1 - rDirect
		}
	}
}

// TestFig3WorkedExample reproduces the exact MLU numbers of the paper's
// Figure 3 trade-off example under the shared-link convention it uses
// ("A↔B: 2": both directions of a link draw on one capacity; the
// evaluation sections use the per-directed-edge MLU instead).
func TestFig3WorkedExample(t *testing.T) {
	ps := trianglePS(t)
	normal := fig3Demand(ps, 1, 1, 1)
	burst1 := fig3Demand(ps, 4, 1, 1)
	burst2 := fig3Demand(ps, 1, 4, 1)
	burst3 := fig3Demand(ps, 1, 1, 4)

	check := func(name string, c *Config, d []float64, want float64) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flows := ps.EdgeFlows(d, c.R, nil)
		got := 0.0
		for e, f := range flows {
			ed := ps.G.Edge(e)
			if rev, ok := ps.G.EdgeID(ed.To, ed.From); ok {
				f += flows[rev]
			}
			got = math.Max(got, f/ed.Capacity)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: MLU = %v, want %v", name, got, want)
		}
	}

	// TE scheme 1: everything on shortest (direct) paths.
	s1 := NewConfig(ps)
	check("scheme1 normal", s1, normal, 0.5)
	check("scheme1 burst1", s1, burst1, 2)
	check("scheme1 burst2", s1, burst2, 2)
	check("scheme1 burst3", s1, burst3, 2)

	// TE scheme 2: 50/50 everywhere.
	s2 := NewConfig(ps)
	setRatio(ps, s2, 0, 1, 0.5)
	setRatio(ps, s2, 0, 2, 0.5)
	setRatio(ps, s2, 1, 2, 0.5)
	check("scheme2 normal", s2, normal, 0.75)
	check("scheme2 burst1", s2, burst1, 1.5)
	check("scheme2 burst2", s2, burst2, 1.5)
	check("scheme2 burst3", s2, burst3, 1.5)

	// TE scheme 3: hedge only B->C (62.5% direct / 37.5% via A).
	s3 := NewConfig(ps)
	setRatio(ps, s3, 1, 2, 0.625)
	check("scheme3 normal", s3, normal, 0.6875)
	check("scheme3 burst1", s3, burst1, 2.1875)
	check("scheme3 burst2", s3, burst2, 2.1875)
	check("scheme3 burst3", s3, burst3, 1.25)
}

func TestMLUDirected(t *testing.T) {
	ps := trianglePS(t)
	c := NewConfig(ps)
	d := fig3Demand(ps, 1, 1, 1)
	m, arg := ps.MLU(d, c.R)
	if m != 0.5 {
		t.Errorf("directed MLU = %v, want 0.5", m)
	}
	if arg < 0 || arg >= ps.G.NumEdges() {
		t.Errorf("argmax edge %d out of range", arg)
	}
	// Zero demand.
	z := make([]float64, ps.Pairs.Count())
	if m, _ := ps.MLU(z, c.R); m != 0 {
		t.Errorf("zero-demand MLU = %v", m)
	}
}

func TestEdgeFlowsReuseBuffer(t *testing.T) {
	ps := trianglePS(t)
	c := UniformConfig(ps)
	d := fig3Demand(ps, 1, 2, 3)
	buf := make([]float64, ps.G.NumEdges())
	f1 := ps.EdgeFlows(d, c.R, buf)
	if &f1[0] != &buf[0] {
		t.Error("buffer was not reused")
	}
	f2 := ps.EdgeFlows(d, c.R, nil)
	for i := range f1 {
		if math.Abs(f1[i]-f2[i]) > 1e-12 {
			t.Fatalf("flow %d differs: %v vs %v", i, f1[i], f2[i])
		}
	}
	// Alloc contract: the CSR walk into a caller's buffer allocates nothing.
	if n := testing.AllocsPerRun(50, func() { ps.EdgeFlows(d, c.R, buf) }); n != 0 && !testing.Short() {
		t.Errorf("EdgeFlows into a caller's buffer: %v allocs/op, want 0", n)
	}
}

func TestEdgeCSRMatchesEdgeIDs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Triangle(), graph.GEANT()} {
		ps, err := NewPathSet(g, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids, start := ps.EdgeCSR()
		if len(start) != ps.NumPaths()+1 {
			t.Fatalf("start has %d entries for %d paths", len(start), ps.NumPaths())
		}
		for p, eids := range ps.EdgeIDs {
			span := ids[start[p]:start[p+1]]
			if len(span) != len(eids) {
				t.Fatalf("path %d: CSR span %d edges, EdgeIDs %d", p, len(span), len(eids))
			}
			for i, e := range eids {
				if int(span[i]) != e {
					t.Fatalf("path %d edge %d: CSR %d, EdgeIDs %d", p, i, span[i], e)
				}
			}
		}
		caps := ps.EdgeCaps()
		for e := 0; e < ps.G.NumEdges(); e++ {
			if caps[e] != ps.G.Edge(e).Capacity {
				t.Fatalf("edge %d capacity cache %v, graph %v", e, caps[e], ps.G.Edge(e).Capacity)
			}
		}
	}
}

func TestEdgeCSRLazyBuild(t *testing.T) {
	// PathSets assembled by hand (without NewPathSet) must still serve
	// EdgeFlows via the lazily built CSR.
	full := trianglePS(t)
	ps := &PathSet{
		G: full.G, Pairs: full.Pairs,
		Paths: full.Paths, PairOf: full.PairOf, EdgeIDs: full.EdgeIDs,
		Cap: full.Cap, PairPaths: full.PairPaths,
	}
	r := make([]float64, ps.NumPaths())
	d := make([]float64, ps.Pairs.Count())
	for i := range r {
		r[i] = 0.5
	}
	for i := range d {
		d[i] = float64(i + 1)
	}
	got := ps.EdgeFlows(d, r, nil)
	want := full.EdgeFlows(d, r, nil)
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("edge %d: lazy CSR flow %v, eager %v", e, got[e], want[e])
		}
	}
}

func TestEdgeFlowsMatchesNaive(t *testing.T) {
	ps, err := NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = rng.Float64() * 3
	}
	cfg := UniformConfig(ps)
	got := ps.EdgeFlows(d, cfg.R, nil)
	// Naive slice-of-slices reference.
	want := make([]float64, ps.G.NumEdges())
	for p, eids := range ps.EdgeIDs {
		f := d[ps.PairOf[p]] * cfg.R[p]
		for _, e := range eids {
			want[e] += f
		}
	}
	for e := range want {
		if math.Abs(got[e]-want[e]) > 1e-12 {
			t.Fatalf("edge %d: CSR flow %v, naive %v", e, got[e], want[e])
		}
	}
}

func TestConfigValidateAndNormalize(t *testing.T) {
	ps := trianglePS(t)
	c := NewConfig(ps)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.R[0] = 0.7 // break pair sums
	if err := c.Validate(); err == nil {
		t.Error("broken config validated")
	}
	c.Normalize()
	if err := c.Validate(); err != nil {
		t.Errorf("normalize did not repair: %v", err)
	}
	// NaN rejected.
	c2 := NewConfig(ps)
	c2.R[1] = math.NaN()
	if err := c2.Validate(); err == nil {
		t.Error("NaN ratio validated")
	}
	// All-zero pair becomes uniform.
	c3 := NewConfig(ps)
	for _, p := range ps.PairPaths[0] {
		c3.R[p] = 0
	}
	c3.Normalize()
	for _, p := range ps.PairPaths[0] {
		if math.Abs(c3.R[p]-0.5) > 1e-12 {
			t.Errorf("zero pair not uniform after Normalize: %v", c3.R[p])
		}
	}
	// Negative clipped.
	c4 := NewConfig(ps)
	pp := ps.PairPaths[0]
	c4.R[pp[0]] = -0.5
	c4.R[pp[1]] = 0.5
	c4.Normalize()
	if c4.R[pp[0]] != 0 || c4.R[pp[1]] != 1 {
		t.Errorf("negative clip failed: %v %v", c4.R[pp[0]], c4.R[pp[1]])
	}
}

// Property: Normalize always yields a valid config from arbitrary raw input.
func TestNormalizeProperty(t *testing.T) {
	ps := trianglePS(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewConfig(ps)
		for i := range c.R {
			c.R[i] = rng.NormFloat64()
		}
		c.Normalize()
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MLU is monotone in demand and 1-homogeneous in demand scale.
func TestMLUScalingProperty(t *testing.T) {
	ps, err := NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := UniformConfig(ps)
	rng := rand.New(rand.NewSource(5))
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = rng.Float64()
	}
	m1, _ := ps.MLU(d, c.R)
	d2 := make([]float64, len(d))
	for i := range d {
		d2[i] = 3 * d[i]
	}
	m2, _ := ps.MLU(d2, c.R)
	if math.Abs(m2-3*m1) > 1e-9 {
		t.Errorf("homogeneity broken: %v vs 3*%v", m2, m1)
	}
	// Monotone: raising one demand never lowers MLU.
	d[7] *= 10
	m3, _ := ps.MLU(d, c.R)
	if m3 < m1-1e-12 {
		t.Errorf("monotonicity broken: %v < %v", m3, m1)
	}
}

func TestSensitivities(t *testing.T) {
	ps := trianglePS(t)
	c := NewConfig(ps)
	s := ps.Sensitivities(c.R, false)
	for p := range s {
		want := c.R[p] / ps.Cap[p]
		if math.Abs(s[p]-want) > 1e-12 {
			t.Errorf("S[%d] = %v, want %v", p, s[p], want)
		}
	}
	// Normalized: min capacity 2 scales to 1, so sensitivities double.
	sn := ps.Sensitivities(c.R, true)
	for p := range sn {
		if math.Abs(sn[p]-2*s[p]) > 1e-12 {
			t.Errorf("normalized S[%d] = %v, want %v", p, sn[p], 2*s[p])
		}
	}
	// Max per pair of a direct-only config: 0.5 on the direct path.
	mx := ps.MaxPairSensitivities(c.R, false)
	for pi, v := range mx {
		if math.Abs(v-0.5) > 1e-12 {
			t.Errorf("pair %d max sensitivity = %v, want 0.5", pi, v)
		}
	}
}

func TestRerouteProportional(t *testing.T) {
	// Paper's example: (0.5, 0.3, 0.2) with first path failed -> (0, 0.6, 0.4).
	g := graph.FullMesh(4, 10)
	ps, err := NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConfig(ps)
	pi := ps.Pairs.Index(0, 1)
	pp := ps.PairPaths[pi]
	if len(pp) != 3 {
		t.Fatalf("need 3 candidate paths, got %d", len(pp))
	}
	c.R[pp[0]], c.R[pp[1]], c.R[pp[2]] = 0.5, 0.3, 0.2
	// Fail the direct link 0-1 (pp[0] is the direct path).
	fs := NewFailureSet(g, [][2]int{{0, 1}})
	if !fs.PathDown(ps, pp[0]) {
		t.Fatal("direct path should be down")
	}
	out := Reroute(c, fs)
	if out.R[pp[0]] != 0 {
		t.Errorf("failed path ratio = %v", out.R[pp[0]])
	}
	if math.Abs(out.R[pp[1]]-0.6) > 1e-12 || math.Abs(out.R[pp[2]]-0.4) > 1e-12 {
		t.Errorf("proportional redistribution = (%v,%v), want (0.6,0.4)", out.R[pp[1]], out.R[pp[2]])
	}
	// Original untouched.
	if c.R[pp[0]] != 0.5 {
		t.Error("Reroute mutated input")
	}
}

func TestRerouteEqualSplit(t *testing.T) {
	// Paper's example: (1, 0, 0) with first path failed -> (0, 0.5, 0.5).
	g := graph.FullMesh(4, 10)
	ps, err := NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConfig(ps)
	pi := ps.Pairs.Index(0, 1)
	pp := ps.PairPaths[pi]
	c.R[pp[0]], c.R[pp[1]], c.R[pp[2]] = 1, 0, 0
	fs := NewFailureSet(g, [][2]int{{0, 1}})
	out := Reroute(c, fs)
	if out.R[pp[0]] != 0 || math.Abs(out.R[pp[1]]-0.5) > 1e-12 || math.Abs(out.R[pp[2]]-0.5) > 1e-12 {
		t.Errorf("equal redistribution = (%v,%v,%v), want (0,0.5,0.5)",
			out.R[pp[0]], out.R[pp[1]], out.R[pp[2]])
	}
}

// Property: rerouting conserves each pair's total ratio unless the pair is
// fully disconnected, and never leaves traffic on a failed path.
func TestRerouteConservationProperty(t *testing.T) {
	g := graph.GEANT()
	ps, err := NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewConfig(ps)
		for i := range c.R {
			c.R[i] = rng.Float64()
		}
		c.Normalize()
		// Fail two random links.
		es := g.Edges()
		var links [][2]int
		for len(links) < 2 {
			e := es[rng.Intn(len(es))]
			links = append(links, [2]int{e.From, e.To})
		}
		fs := NewFailureSet(g, links)
		out := Reroute(c, fs)
		for pi, pp := range ps.PairPaths {
			sum, aliveCount := 0.0, 0
			for _, p := range pp {
				if fs.PathDown(ps, p) {
					if out.R[p] != 0 {
						return false
					}
				} else {
					aliveCount++
				}
				sum += out.R[p]
			}
			if aliveCount == 0 {
				if sum != 0 {
					return false
				}
				continue
			}
			if math.Abs(sum-1) > 1e-9 {
				_ = pi
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNewPathSetErrors(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 1)
	// Vertex 2 unreachable.
	if _, err := NewPathSet(g, 3, nil); err == nil {
		t.Error("disconnected graph should fail")
	}
	if _, err := NewPathSet(graph.Triangle(), 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
}
