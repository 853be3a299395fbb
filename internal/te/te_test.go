package te

import (
	"math"
	"math/rand"
	"slices"
	"strings"
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

// incidenceSets are the path sets the incidence tests walk: GEANT (mixed
// capacities), pod-web (a full mesh), the ladder (paths of unequal
// lengths, three capacities) and GEANT again under a custom selector that
// prefers wide links over few hops.
func incidenceSets(t *testing.T) []namedSet {
	t.Helper()
	wide := func(g *graph.Graph, s, d, k int) []graph.Path {
		return g.KShortestPaths(s, d, k, func(e graph.Edge) float64 { return 1 / e.Capacity })
	}
	var sets []namedSet
	for _, c := range []struct {
		name string
		g    *graph.Graph
		sel  PathSelector
	}{
		{"geant", graph.GEANT(), nil},
		{"pod-web", graph.PoDWEB(), nil},
		{"ladder", ladder(15), nil},
		{"geant-wide", graph.GEANT(), wide},
	} {
		ps, err := NewPathSet(c.g, 3, c.sel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sets = append(sets, namedSet{c.name, ps})
	}
	return sets
}

type namedSet struct {
	name string
	ps   *PathSet
}

// walkEdges maps path p's vertices to edge ids hop by hop through
// g.EdgeID, independently of the path set's CSR.
func walkEdges(t *testing.T, g *graph.Graph, p graph.Path) []int32 {
	t.Helper()
	var ids []int32
	for i := 0; i+1 < len(p); i++ {
		e, ok := g.EdgeID(p[i], p[i+1])
		if !ok {
			t.Fatalf("path %v: hop %d→%d is no edge", p, p[i], p[i+1])
		}
		ids = append(ids, int32(e))
	}
	return ids
}

// TestEdgeCSRMatchesEdgeIDs: every path's CSR run is its vertex walk
// mapped through g.EdgeID, the runs tile the CSR in path order, Cap[p] is
// the smallest capacity along the walk and EdgeCaps is the graph's
// capacities.
func TestEdgeCSRMatchesEdgeIDs(t *testing.T) {
	for _, c := range incidenceSets(t) {
		name, ps, g := c.name, c.ps, c.ps.G
		ids, start := ps.EdgeCSR()
		if len(start) != ps.NumPaths()+1 || start[0] != 0 || int(start[ps.NumPaths()]) != len(ids) {
			t.Fatalf("%s: start has %d entries for %d paths over %d ids", name, len(start), ps.NumPaths(), len(ids))
		}
		for p, path := range ps.Paths {
			want := walkEdges(t, g, path)
			if got := ps.PathEdges(p); !slices.Equal(got, want) {
				t.Fatalf("%s: path %d %v: PathEdges %v, walk %v", name, p, path, got, want)
			}
			if got := ids[start[p]:start[p+1]]; !slices.Equal(got, want) {
				t.Fatalf("%s: path %d: CSR run %v, walk %v", name, p, got, want)
			}
			bottleneck := math.Inf(1)
			for _, e := range want {
				bottleneck = min(bottleneck, g.Edge(int(e)).Capacity)
			}
			if ps.Cap[p] != bottleneck {
				t.Fatalf("%s: path %d: Cap %v, bottleneck %v", name, p, ps.Cap[p], bottleneck)
			}
		}
		caps := ps.EdgeCaps()
		for e := 0; e < g.NumEdges(); e++ {
			if caps[e] != g.Edge(e).Capacity {
				t.Fatalf("%s: edge %d capacity cache %v, graph %v", name, e, caps[e], g.Edge(e).Capacity)
			}
		}
	}
}

// TestPathCapBottleneck: Cap[p] is the smallest capacity along the path,
// whether it sits at the first hop or the last (0→2 runs 5 then 3, 2→0
// runs 2 then 7).
func TestPathCapBottleneck(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 1, 2)
	g.MustAddEdge(1, 0, 7)
	ps, err := NewPathSet(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]float64{{0, 1}: 5, {0, 2}: 3, {1, 0}: 7, {1, 2}: 3, {2, 0}: 2, {2, 1}: 2}
	for pi, pp := range ps.PairPaths {
		s, d := ps.Pairs.SD(pi)
		if c := ps.Cap[pp[0]]; c != want[[2]int{s, d}] {
			t.Errorf("pair (%d,%d): Cap %v, want %v", s, d, c, want[[2]int{s, d}])
		}
	}
}

// ladder is a 2×n ladder, links both ways: its paths run up to n edges
// and more, so its 4-path groups have unequal lengths.
func ladder(n int) *graph.Graph {
	g := graph.New(2 * n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, n+i, 5)
		g.MustAddEdge(n+i, i, 5)
		if i+1 < n {
			g.MustAddEdge(i, i+1, 10)
			g.MustAddEdge(i+1, i, 10)
			g.MustAddEdge(n+i, n+i+1, 8)
			g.MustAddEdge(n+i+1, n+i, 8)
		}
	}
	return g
}

// padded is a 6-node directed ring with chords 0→2, 0→3 and 0→4: 9 edges
// and 30 pairs, neither a multiple of four. At K = 3 its first pair quad
// holds pairs of 1, 2, 3 and 3 paths (0→1 .. 0→4), and its last quad two
// pairs and two lanes of padding.
func padded() *graph.Graph {
	g := graph.New(6)
	for v := 0; v < 6; v++ {
		g.MustAddEdge(v, (v+1)%6, float64(4+v%3))
	}
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(0, 3, 2)
	g.MustAddEdge(0, 4, 5)
	return g
}

// checkQuads checks a four-abreast layout against its lists: quad q holds
// lists 4q..4q+3, entry k*4+lane the k-th id of list 4q+lane, padded with
// pad to the quad's longest list, and lanes past the last list all pad.
func checkQuads(t *testing.T, what string, ids, start []int32, lists [][]int32, pad int32) {
	t.Helper()
	nq := (len(lists) + 3) / 4
	if len(start) != nq+1 || int(start[nq]) != len(ids) {
		t.Fatalf("%s: %d lists, %d starts over %d ids", what, len(lists), len(start), len(ids))
	}
	for q := 0; q < nq; q++ {
		quad := ids[start[q]:start[q+1]]
		longest := 0
		for lane := 0; lane < 4; lane++ {
			var list []int32
			if i := 4*q + lane; i < len(lists) {
				list = lists[i]
			}
			longest = max(longest, len(list))
			for k := 0; k < len(quad)/4; k++ {
				want := pad
				if k < len(list) {
					want = list[k]
				}
				if quad[k*4+lane] != want {
					t.Fatalf("%s: quad %d lane %d step %d holds %d, want %d", what, q, lane, k, quad[k*4+lane], want)
				}
			}
		}
		if len(quad) != 4*longest {
			t.Fatalf("%s: quad %d has %d entries, want 4×%d", what, q, len(quad), longest)
		}
	}
}

// TestEdgeQuads: edgeOf visits every edge exactly once, longest path list
// first and in edge id among equals; the slot of edge e lists exactly the
// paths whose CSR run contains e, in ascending id order (the order
// EdgeFlows adds their flows), padded with the sentinel path NumPaths(),
// and the slots past the last edge are all sentinel.
func TestEdgeQuads(t *testing.T) {
	for _, g := range []*graph.Graph{graph.GEANT(), ladder(15), padded()} {
		ps, err := NewPathSet(g, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		E := g.NumEdges()
		csr, cstart := ps.EdgeCSR()
		through := make([][]int32, E)
		for p := 0; p < ps.NumPaths(); p++ {
			for _, e := range csr[cstart[p]:cstart[p+1]] {
				through[e] = append(through[e], int32(p))
			}
		}
		ids, start, edgeOf := ps.EdgeQuads()
		if len(edgeOf) != E {
			t.Fatalf("%d edges, %d slots", E, len(edgeOf))
		}
		seen := make([]bool, E)
		lists := make([][]int32, E)
		for s, e := range edgeOf {
			if e < 0 || int(e) >= E || seen[e] {
				t.Fatalf("slot %d holds edge %d: not a permutation of %d edges", s, e, E)
			}
			seen[e] = true
			lists[s] = through[e]
			if s > 0 {
				prev := edgeOf[s-1]
				if n, m := len(through[prev]), len(through[e]); n < m || n == m && prev > e {
					t.Fatalf("slot %d: edge %d (%d paths) after edge %d (%d paths)", s, e, m, prev, n)
				}
			}
		}
		checkQuads(t, "edge quads", ids, start, lists, int32(ps.NumPaths()))
	}
}

// TestPathGroupsAndPairQuads: group g holds paths 4g..4g+3 with entry
// k*4+lane the k-th edge of path 4g+lane, padded with the sentinel edge
// NumEdges(); pair quad q holds PairPaths[4q..4q+3] the same way, padded
// with the sentinel path NumPaths(); pairOf is PairOf. The ladder's paths
// are of unequal lengths, and padded's first pair quad mixes pairs of 1, 2
// and 3 paths and its last ends in two empty lanes.
func TestPathGroupsAndPairQuads(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"ladder", ladder(15)}, {"padded", padded()}} {
		g := tc.g
		ps, err := NewPathSet(g, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		P := ps.NumPaths()
		edges := make([][]int32, P)
		for p := range edges {
			edges[p] = ps.PathEdges(p)
		}
		ids, start := ps.PathGroups()
		checkQuads(t, "path groups", ids, start, edges, int32(g.NumEdges()))

		paths := make([][]int32, len(ps.PairPaths))
		sizes := map[int]bool{}
		for i, pp := range ps.PairPaths {
			for _, p := range pp {
				paths[i] = append(paths[i], int32(p))
			}
			if i < 4 {
				sizes[len(pp)] = true
			}
		}
		ids, start, pairOf := ps.PairQuads()
		checkQuads(t, "pair quads", ids, start, paths, int32(P))
		if len(pairOf) != P {
			t.Fatalf("pairOf has %d entries, want %d", len(pairOf), P)
		}
		for p, pi := range ps.PairOf {
			if int(pairOf[p]) != pi {
				t.Fatalf("pairOf[%d] = %d, want %d", p, pairOf[p], pi)
			}
		}
		if tc.name == "padded" && (!sizes[1] || !sizes[2] || !sizes[3] || len(paths)%4 == 0) {
			t.Fatalf("padded: first quad's pair sizes %v, %d pairs", sizes, len(paths))
		}
	}
}

// TestSolverLayoutsBuiltLazily: NewPathSet and PathStore.Load build none of
// the solver's layouts, the path groups, the edge quads or the pair quads,
// and asking for one builds them all; a hand-assembled set whose PairPaths
// disagree with PairOf panics with a te: message when they are built.
func TestSolverLayoutsBuiltLazily(t *testing.T) {
	store, err := NewPathStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewPathSetOpt(graph.GEANT(), 3, PathSetOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(graph.GEANT(), 3, SelectorYen)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ps   *PathSet
	}{{"NewPathSetOpt", built}, {"PathStore.Load", loaded}} {
		name, ps := c.name, c.ps
		layouts := func() []bool {
			return []bool{ps.groupEdges != nil, ps.edgeQuadPaths != nil, ps.edgeOf != nil, ps.pairQuadPaths != nil, ps.pairOf32 != nil}
		}
		if built := layouts(); slices.Contains(built, true) {
			t.Errorf("%s built solver layouts: %v", name, built)
		}
		ps.PairQuads()
		if built := layouts(); slices.Contains(built, false) {
			t.Errorf("%s: PairQuads left a layout unbuilt: %v", name, built)
		}
	}

	full := trianglePS(t)
	swapped := make([][]int, len(full.PairPaths))
	copy(swapped, full.PairPaths)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	ps := &PathSet{
		G: full.G, Pairs: full.Pairs,
		Paths: full.Paths, PairOf: full.PairOf, Cap: full.Cap, PairPaths: swapped,
		csrEdges: full.csrEdges, csrStart: full.csrStart, csrCap: full.csrCap,
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "te: ") {
			t.Errorf("swapped pairs: recovered %q, want a te: panic", msg)
		}
	}()
	ps.EdgeQuads()
}

// TestEdgeFlowsMatchesNaive holds EdgeFlows against a reference that
// walks each path's vertices through g.EdgeID, so it shares nothing with
// the CSR the flows are summed over.
func TestEdgeFlowsMatchesNaive(t *testing.T) {
	for _, c := range incidenceSets(t) {
		name, ps := c.name, c.ps
		rng := rand.New(rand.NewSource(7))
		d := make([]float64, ps.Pairs.Count())
		for i := range d {
			d[i] = rng.Float64() * 3
		}
		cfg := UniformConfig(ps)
		got := ps.EdgeFlows(d, cfg.R, nil)
		want := make([]float64, ps.G.NumEdges())
		for p, path := range ps.Paths {
			f := d[ps.PairOf[p]] * cfg.R[p]
			for _, e := range walkEdges(t, ps.G, path) {
				want[e] += f
			}
		}
		for e := range want {
			if math.Abs(got[e]-want[e]) > 1e-12 {
				t.Fatalf("%s: edge %d: CSR flow %v, naive %v", name, e, got[e], want[e])
			}
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
