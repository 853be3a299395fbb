package te

import "figret/internal/graph"

// FailureSet marks failed directed edges of the topology a PathSet was built
// on. Use NewFailureSet to derive it from failed links.
type FailureSet struct {
	edgeDown []bool
}

// NewFailureSet builds a FailureSet from undirected link failures: each
// (a,b) entry fails both directed edges a->b and b->a if present.
func NewFailureSet(g *graph.Graph, links [][2]int) *FailureSet {
	fs := &FailureSet{edgeDown: make([]bool, g.NumEdges())}
	for _, l := range links {
		if id, ok := g.EdgeID(l[0], l[1]); ok {
			fs.edgeDown[id] = true
		}
		if id, ok := g.EdgeID(l[1], l[0]); ok {
			fs.edgeDown[id] = true
		}
	}
	return fs
}

// PathDown reports whether path p (by index into ps) traverses a failed edge.
func (fs *FailureSet) PathDown(ps *PathSet, p int) bool {
	for _, e := range ps.PathEdges(p) {
		if fs.edgeDown[e] {
			return true
		}
	}
	return false
}

// Reroute applies the failure-handling policy of §4.5 to c and returns a new
// configuration:
//
//   - the ratio of every failed path is moved to the pair's surviving paths
//     proportionally to their existing ratios, e.g. (0.5,0.3,0.2) with the
//     first path failed becomes (0, 0.6, 0.4);
//   - if the surviving paths all have ratio 0, the failed ratio is divided
//     equally among them, e.g. (1,0,0) becomes (0, 0.5, 0.5);
//   - if a pair loses every path, its ratios are all set to 0 (the pair is
//     disconnected; its demand is dropped and does not contribute to MLU).
//
// Rerouting requires no retraining — it is a post-processing step on any
// configuration, which is exactly how FIGRET handles failures.
func Reroute(c *Config, fs *FailureSet) *Config {
	out := c.Clone()
	ps := c.ps
	for _, pp := range ps.PairPaths {
		var failedMass float64
		var aliveSum float64
		alive := 0
		for _, p := range pp {
			if fs.PathDown(ps, p) {
				failedMass += out.R[p]
				out.R[p] = 0
			} else {
				aliveSum += out.R[p]
				alive++
			}
		}
		if failedMass == 0 {
			continue
		}
		switch {
		case alive == 0:
			// Pair fully disconnected; nothing to carry the traffic.
		case aliveSum > 0:
			scale := (aliveSum + failedMass) / aliveSum
			for _, p := range pp {
				if !fs.PathDown(ps, p) {
					out.R[p] *= scale
				}
			}
		default:
			w := failedMass / float64(alive)
			for _, p := range pp {
				if !fs.PathDown(ps, p) {
					out.R[p] = w
				}
			}
		}
	}
	return out
}

// MLUUnderFailure evaluates the MLU of demand d after rerouting c around fs.
// Failed edges carry no traffic by construction (their paths were zeroed).
func MLUUnderFailure(c *Config, fs *FailureSet, d []float64) float64 {
	return Reroute(c, fs).MLU(d)
}
