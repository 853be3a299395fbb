package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	cases := []struct {
		name     string
		from, to int
		cap      float64
	}{
		{"self-loop", 1, 1, 1},
		{"negative cap", 1, 2, -1},
		{"zero cap", 1, 2, 0},
		{"NaN cap", 1, 2, math.NaN()},
		{"out of range from", -1, 2, 1},
		{"out of range to", 0, 3, 1},
		{"duplicate", 0, 1, 5},
	}
	for _, c := range cases {
		if _, err := g.AddEdge(c.from, c.to, c.cap); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEdgeIDAndOutEdges(t *testing.T) {
	g := New(4)
	id01 := g.MustAddEdge(0, 1, 1)
	id02 := g.MustAddEdge(0, 2, 2)
	id20 := g.MustAddEdge(2, 0, 3)
	for _, c := range []struct {
		name     string
		from, to int
		id       int
		ok       bool
	}{
		{"first out-edge", 0, 1, id01, true},
		{"second out-edge", 0, 2, id02, true},
		{"edge of another vertex", 2, 0, id20, true},
		{"reverse of an edge", 1, 0, 0, false},
		{"vertex without out-edges", 3, 0, 0, false},
		{"negative from", -1, 0, 0, false},
		{"negative to", 0, -1, 0, false},
		{"from past the end", 4, 0, 0, false},
		{"to past the end", 0, 4, 0, false},
	} {
		if id, ok := g.EdgeID(c.from, c.to); id != c.id || ok != c.ok {
			t.Errorf("%s: EdgeID(%d,%d) = %d,%v, want %d,%v", c.name, c.from, c.to, id, ok, c.id, c.ok)
		}
	}
	out := g.out[0]
	if len(out) != 2 || out[0] != id01 || out[1] != id02 {
		t.Errorf("out-list of 0 = %v", out)
	}
	if len(g.out[3]) != 0 {
		t.Error("vertex 3 should have no out edges")
	}
	if _, ok := (&Graph{}).EdgeID(0, 0); ok {
		t.Error("the zero Graph has an edge")
	}
}

func TestConnected(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 1)
	if g.connected() {
		t.Error("disconnected graph reported connected")
	}
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 1, 1)
	if !g.connected() {
		t.Error("connected graph reported disconnected")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.NumEdges() != 1 {
		t.Errorf("clone mutation leaked into original: %d edges", g.NumEdges())
	}
	if c.NumEdges() != 2 {
		t.Errorf("clone edges = %d, want 2", c.NumEdges())
	}
}

func TestShortestPathBasic(t *testing.T) {
	// 0-1-2 line plus a direct expensive 0->2.
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	p, d, ok := g.ShortestPath(0, 2, HopWeight, nil, nil)
	if !ok || d != 1 || !p.Equal(Path{0, 2}) {
		t.Errorf("got %v cost %v ok %v, want direct path", p, d, ok)
	}
	// Ban the direct edge.
	ban := make([]bool, g.NumEdges())
	id, _ := g.EdgeID(0, 2)
	ban[id] = true
	p, d, ok = g.ShortestPath(0, 2, HopWeight, nil, ban)
	if !ok || d != 2 || !p.Equal(Path{0, 1, 2}) {
		t.Errorf("banned: got %v cost %v", p, d)
	}
	// Unreachable.
	if _, _, ok := g.ShortestPath(2, 0, HopWeight, nil, nil); ok {
		t.Error("2->0 should be unreachable")
	}
}

func TestShortestPathWeights(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 100)
	g.MustAddEdge(1, 2, 100)
	g.MustAddEdge(0, 2, 1)
	// Under inverse-capacity weight the two-hop fat route wins.
	p, _, ok := g.ShortestPath(0, 2, func(e Edge) float64 { return 1 / e.Capacity }, nil, nil)
	if !ok || !p.Equal(Path{0, 1, 2}) {
		t.Errorf("inverse-capacity path = %v", p)
	}
}

func TestKShortestPathsTriangle(t *testing.T) {
	g := Triangle()
	ps := g.KShortestPaths(1, 2, 3, HopWeight)
	if len(ps) != 2 {
		t.Fatalf("triangle B->C has 2 simple paths, got %d: %v", len(ps), ps)
	}
	if !ps[0].Equal(Path{1, 2}) {
		t.Errorf("first path %v, want direct", ps[0])
	}
	if !ps[1].Equal(Path{1, 0, 2}) {
		t.Errorf("second path %v, want via A", ps[1])
	}
}

func TestKShortestPathsProperties(t *testing.T) {
	g := GEANT()
	for _, pair := range [][2]int{{0, 12}, {3, 17}, {22, 5}} {
		ps := g.KShortestPaths(pair[0], pair[1], 3, HopWeight)
		if len(ps) != 3 {
			t.Fatalf("pair %v: got %d paths", pair, len(ps))
		}
		seen := map[string]bool{}
		prevLen := 0
		for _, p := range ps {
			if !p.isSimple() {
				t.Errorf("pair %v: non-simple path %v", pair, p)
			}
			if p[0] != pair[0] || p[len(p)-1] != pair[1] {
				t.Errorf("pair %v: endpoints wrong in %v", pair, p)
			}
			if _, ok := p.Edges(g); !ok {
				t.Errorf("pair %v: path %v uses non-edges", pair, p)
			}
			key := pathKey(p)
			if seen[key] {
				t.Errorf("pair %v: duplicate path %v", pair, p)
			}
			seen[key] = true
			if len(p) < prevLen {
				t.Errorf("pair %v: paths not sorted by hop count", pair)
			}
			prevLen = len(p)
		}
	}
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func TestKShortestFirstIsShortest(t *testing.T) {
	// Property: first Yen path always equals Dijkstra's shortest path cost.
	g, err := RingWithChords(30, 45, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		s, d := rng.Intn(30), rng.Intn(30)
		if s == d {
			continue
		}
		_, want, ok := g.ShortestPath(s, d, HopWeight, nil, nil)
		if !ok {
			t.Fatalf("disconnected ring graph")
		}
		ps := g.KShortestPaths(s, d, 3, HopWeight)
		if len(ps) == 0 {
			t.Fatalf("no Yen paths for %d->%d", s, d)
		}
		if got := float64(len(ps[0]) - 1); got != want {
			t.Errorf("%d->%d: yen first cost %v, dijkstra %v", s, d, got, want)
		}
	}
}

func TestTopologySizes(t *testing.T) {
	cases := []struct {
		name           string
		nodes, edges   int
		wantConnected  bool
		skipExpensiveN int // if >0 skip when testing.Short and nodes >= this
	}{
		{TopoGEANT, 23, 74, true, 0},
		{TopoUsCarrier, 158, 378, true, 0},
		{TopoCogentco, 197, 486, true, 0},
		{TopoPFabric, 9, 72, true, 0},
		{TopoPoDDB, 4, 12, true, 0},
		{TopoPoDWEB, 8, 56, true, 0},
		{TopoToRDB, 155, 7194, true, 0},
		{TopoToRWEB, 324, 31520, true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != c.nodes {
				t.Errorf("nodes = %d, want %d", g.NumVertices(), c.nodes)
			}
			if g.NumEdges() != c.edges {
				t.Errorf("edges = %d, want %d", g.NumEdges(), c.edges)
			}
			if g.connected() != c.wantConnected {
				t.Errorf("connected = %v, want %v", g.connected(), c.wantConnected)
			}
		})
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown topology name should error")
	}
}

func TestTopologyDeterminism(t *testing.T) {
	a, b := ToRDB(), ToRDB()
	ea, eb := a.SortedEdgeList(), b.SortedEdgeList()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRingWithChordsErrors(t *testing.T) {
	if _, err := RingWithChords(10, 5, 1, 1); err == nil {
		t.Error("too few links should error")
	}
	if _, err := RingWithChords(4, 100, 1, 1); err == nil {
		t.Error("too many links should error")
	}
	if _, err := RandomRegularish(10, 5, 1, 1); err == nil {
		t.Error("too few links should error")
	}
	if _, err := RandomRegularish(4, 100, 1, 1); err == nil {
		t.Error("too many links should error")
	}
}

func TestFullMeshProperty(t *testing.T) {
	// Property: for any 2<=n<=10, FullMesh(n) has n(n-1) edges and is connected.
	f := func(raw uint8) bool {
		n := int(raw%9) + 2
		g := FullMesh(n, 1)
		return g.NumEdges() == n*(n-1) && g.connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMinCapacityAndDegrees(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 0, 9)
	if g.MinCapacity() != 2 {
		t.Errorf("MinCapacity = %v", g.MinCapacity())
	}
	d := g.Degrees()
	if d[0] != 1 || d[1] != 1 || d[2] != 1 {
		t.Errorf("Degrees = %v", d)
	}
	if New(0).MinCapacity() != 0 {
		t.Error("empty graph MinCapacity should be 0")
	}
}

// connected reports whether every vertex is reachable from vertex 0
// following directed edges (sufficient for the symmetric graphs used here).
func (g *Graph) connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.out[v] {
			w := g.edges[ei].To
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// isSimple reports whether p visits no vertex twice.
func (p Path) isSimple() bool {
	seen := make(map[int]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
