package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (unsorted); NaN when empty.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how the
// driver computes spreads; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := median(xs)
		return v, v, v
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPercentile returns the highest percentile, capped at want, that has
// at least 10 samples beyond it, and that percentile's value. With fewer
// than 20 samples no percentile above the median qualifies and the median
// is returned.
func tailPercentile(sorted []float64, want float64) (p, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0, math.NaN()
	}
	p = 1 - 10/float64(n)
	if p > want {
		p = want
	}
	if p < 0.5 {
		p = 0.5
	}
	return p, quantile(sorted, p)
}

// segmentStats summarises one segment's round-trip samples.
type segmentStats struct {
	N          int
	P50, Tail  float64 // same unit as the samples
	TailPct    float64 // the percentile Tail is
	Mean       float64
	OpsPerSec  float64
	WallSecond float64
}

func summarizeSegment(samples []float64, wallSeconds float64, want float64) segmentStats {
	s := sortedCopy(samples)
	st := segmentStats{N: len(s), WallSecond: wallSeconds}
	if len(s) == 0 {
		st.P50, st.Tail, st.Mean = math.NaN(), math.NaN(), math.NaN()
		return st
	}
	st.P50 = quantile(s, 0.5)
	st.TailPct, st.Tail = tailPercentile(s, want)
	var sum float64
	for _, v := range s {
		sum += v
	}
	st.Mean = sum / float64(len(s))
	if wallSeconds > 0 {
		st.OpsPerSec = float64(len(s)) / wallSeconds
	}
	return st
}

// floats applies f to each element.
func floats[T any](xs []T, f func(T) float64) []float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return vs
}

// medianOf applies f to each element and returns the median of the results.
func medianOf[T any](xs []T, f func(T) float64) float64 { return median(floats(xs, f)) }
