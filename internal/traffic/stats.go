package traffic

import (
	"math"
	"sort"
)

// Means returns the per-pair mean demand over the trace.
func (t *Trace) Means() []float64 {
	k := t.Pairs.Count()
	out := make([]float64, k)
	if t.Len() == 0 {
		return out
	}
	for _, s := range t.Snapshots {
		for i, v := range s {
			out[i] += v
		}
	}
	inv := 1 / float64(t.Len())
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Variances returns the per-pair population variance σ²_sd over the trace —
// the traffic-characteristic signal FIGRET's L2 loss weights by (Eq. 8) and
// the quantity plotted in Figure 2.
func (t *Trace) Variances() []float64 {
	k := t.Pairs.Count()
	out := make([]float64, k)
	if t.Len() == 0 {
		return out
	}
	means := t.Means()
	for _, s := range t.Snapshots {
		for i, v := range s {
			d := v - means[i]
			out[i] += d * d
		}
	}
	inv := 1 / float64(t.Len())
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Stddevs returns per-pair standard deviations.
func (t *Trace) Stddevs() []float64 {
	v := t.Variances()
	for i := range v {
		v[i] = math.Sqrt(v[i])
	}
	return v
}

// NormalizedVariances returns variances scaled to [0,1] by the maximum
// (the normalization used in Figure 2's heatmaps).
func (t *Trace) NormalizedVariances() []float64 {
	v := t.Variances()
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	if m > 0 {
		for i := range v {
			v[i] /= m
		}
	}
	return v
}

// CosineSimilarity returns the cosine similarity of two demand vectors,
// or 0 if either is all-zero.
func CosineSimilarity(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// WindowSimilarities implements the Figure 4 analysis: for every snapshot
// t >= H, the maximum cosine similarity between D_t and any of the previous
// H snapshots. Values near 1 indicate stable, predictable traffic; low
// outliers indicate bursts.
func (t *Trace) WindowSimilarities(H int) []float64 {
	var out []float64
	for i := H; i < t.Len(); i++ {
		best := -1.0
		for j := i - H; j < i; j++ {
			if c := CosineSimilarity(t.Snapshots[i], t.Snapshots[j]); c > best {
				best = c
			}
		}
		out = append(out, best)
	}
	return out
}

// Quantile returns the q'th quantile (0..1) of xs by linear interpolation.
// It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("traffic: quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Candlestick summarizes a distribution the way Figure 4's candlesticks do.
type Candlestick struct {
	Min, P25, Median, P75, Max, Mean float64
}

// Summarize computes a Candlestick over xs.
func Summarize(xs []float64) Candlestick {
	c := Candlestick{
		Min:    Quantile(xs, 0),
		P25:    Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		P75:    Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
	}
	for _, x := range xs {
		c.Mean += x
	}
	c.Mean /= float64(len(xs))
	return c
}

// SpearmanRank returns the Spearman rank correlation coefficient between two
// equal-length samples (used by the Table 5 analysis of variance-rank
// stability between train and test sets): the Pearson correlation of the
// ranks, which is robust to ties.
func SpearmanRank(a, b []float64) float64 {
	return Pearson(ranks(a), ranks(b))
}

// Pearson returns the Pearson correlation between two equal-length series;
// 0 for mismatched lengths, fewer than two points or a constant series.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	n := float64(len(a))
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// ranks returns average ranks (1-based) with ties sharing the mean rank.
func ranks(xs []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	s := make([]iv, len(xs))
	for i, v := range xs {
		s[i] = iv{i, v}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j+1 < len(s) && s[j+1].v == s[i].v {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[s[k].i] = avg
		}
		i = j + 1
	}
	return out
}
