package experiments

import (
	"fmt"
	"strings"

	"figret/internal/traffic"
)

// VarianceResult is the Figure 2 study: per-pair demand-variance
// heterogeneity for one topology's workload.
type VarianceResult struct {
	Topo string
	N    int
	// Normalized is the per-pair variance scaled to [0,1].
	Normalized []float64
	// Heterogeneity is the ratio p90/p50 of the variance distribution — a
	// scalar proxy for "SD pairs differ strongly in burstiness".
	Heterogeneity float64
	// TopShare is the share of total variance carried by the top 10% pairs.
	TopShare float64
}

// VarianceHeterogeneity reproduces Figure 2 for an environment.
func VarianceHeterogeneity(env *Env) *VarianceResult {
	v := env.Trace.NormalizedVariances()
	res := &VarianceResult{Topo: env.Topo, N: env.G.NumVertices(), Normalized: v}
	p50 := traffic.Quantile(v, 0.5)
	p90 := traffic.Quantile(v, 0.9)
	if p50 > 0 {
		res.Heterogeneity = p90 / p50
	} else {
		res.Heterogeneity = p90 * 1e9
	}
	total := 0.0
	for _, x := range v {
		total += x
	}
	thresh := traffic.Quantile(v, 0.9)
	top := 0.0
	for _, x := range v {
		if x >= thresh {
			top += x
		}
	}
	if total > 0 {
		res.TopShare = top / total
	}
	return res
}

// String renders a coarse text heatmap for small topologies and summary
// scalars for all.
func (r *VarianceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-pair variance heterogeneity on %s: p90/p50 = %.2f, top-10%% pairs carry %.0f%% of variance\n",
		r.Topo, r.Heterogeneity, 100*r.TopShare)
	if r.N <= 10 {
		// Text heatmap with the diagonal as '-'.
		chars := []byte(" .:-=+*#%@")
		idx := 0
		b.WriteString("variance heatmap (rows=src, cols=dst):\n")
		for s := 0; s < r.N; s++ {
			for d := 0; d < r.N; d++ {
				if s == d {
					b.WriteByte('|')
					continue
				}
				v := r.Normalized[idx]
				idx++
				c := int(v * float64(len(chars)-1))
				b.WriteByte(chars[c])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SimilarityResult is the Figure 4 / Figure 18 study: the distribution of
// max cosine similarity between each demand and its preceding window.
type SimilarityResult struct {
	H       int
	Entries []SimilarityEntry
}

// SimilarityEntry is one topology's candlestick.
type SimilarityEntry struct {
	Topo  string
	Stats traffic.Candlestick
}

// CosineSimilarity reproduces Figure 4 (H=12) and Figure 18 (H=64) across
// the provided environments.
func CosineSimilarity(envs []*Env, H int) *SimilarityResult {
	res := &SimilarityResult{H: H}
	for _, e := range envs {
		sims := e.Trace.WindowSimilarities(H)
		if len(sims) == 0 {
			continue
		}
		res.Entries = append(res.Entries, SimilarityEntry{
			Topo:  e.Topo,
			Stats: traffic.Summarize(sims),
		})
	}
	return res
}

// String renders the candlesticks.
func (r *SimilarityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cosine similarity of each TM vs best match in previous %d TMs\n", r.H)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s\n", "topology", "min", "p25", "median", "p75", "max")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			e.Topo, e.Stats.Min, e.Stats.P25, e.Stats.Median, e.Stats.P75, e.Stats.Max)
	}
	b.WriteString("expected shape: WAN > PoD-level > ToR-level similarity; gravity ≈ 1\n")
	return b.String()
}
