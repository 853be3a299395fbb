// Package tsne implements t-distributed Stochastic Neighbor Embedding
// (van der Maaten & Hinton 2008; the paper cites the original SNE of Hinton
// & Roweis 2002) — the dimensionality-reduction method Appendix F uses to
// visualize how traffic demands drift over time (Figures 16 and 17).
//
// This is the exact O(n²) variant with perplexity-calibrated Gaussian input
// affinities, early exaggeration, and momentum gradient descent — sufficient
// for the hundreds-of-snapshots embeddings the experiments need.
package tsne

import (
	"fmt"
	"math"
	"math/rand"
)

// Options configures Run. Zero values select standard defaults.
type Options struct {
	// Perplexity is the effective neighbor count (default 30, clamped to
	// (n-1)/3 for small inputs).
	Perplexity float64
	// Iters is the number of gradient-descent iterations (default 400).
	Iters int
	// Seed drives the initial embedding.
	Seed int64
}

// learningRate is the gradient step.
const learningRate = 100

func (o Options) withDefaults(n int) Options {
	if o.Perplexity == 0 {
		o.Perplexity = 30
	}
	if max := float64(n-1) / 3; o.Perplexity > max && max >= 2 {
		o.Perplexity = max
	}
	if o.Iters == 0 {
		o.Iters = 400
	}
	return o
}

// Run embeds the n input vectors xs (each the same length) into two
// dimensions and returns an n×2 matrix.
func Run(xs [][]float64, opt Options) ([][]float64, error) {
	n := len(xs)
	if n < 4 {
		return nil, fmt.Errorf("tsne: need at least 4 points, got %d", n)
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("tsne: point %d has %d dims, want %d", i, len(x), dim)
		}
	}
	opt = opt.withDefaults(n)

	P := inputAffinities(xs, opt.Perplexity)
	// Symmetrize and normalize.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (P[i*n+j] + P[j*n+i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			P[i*n+j] = v
			P[j*n+i] = v
		}
		P[i*n+i] = 1e-12
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	const d = 2 // embedding dimensionality
	y := make([]float64, n*d)
	for i := range y {
		y[i] = rng.NormFloat64() * 1e-2
	}
	vel := make([]float64, n*d)
	grad := make([]float64, n*d)
	q := make([]float64, n*n)

	exaggeration := 4.0
	for it := 0; it < opt.Iters; it++ {
		if it == opt.Iters/4 {
			exaggeration = 1
		}
		// Student-t output affinities.
		var qSum float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var dist float64
				for k := 0; k < d; k++ {
					diff := y[i*d+k] - y[j*d+k]
					dist += diff * diff
				}
				v := 1 / (1 + dist)
				q[i*n+j] = v
				q[j*n+i] = v
				qSum += 2 * v
			}
		}
		if qSum < 1e-12 {
			qSum = 1e-12
		}
		// Gradient: 4 Σ_j (p_ij − q_ij) (y_i − y_j) / (1 + |y_i−y_j|²).
		for i := range grad {
			grad[i] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				pij := P[i*n+j] * exaggeration
				qij := q[i*n+j] / qSum
				mult := 4 * (pij - qij) * q[i*n+j]
				for k := 0; k < d; k++ {
					grad[i*d+k] += mult * (y[i*d+k] - y[j*d+k])
				}
			}
		}
		momentum := 0.5
		if it > 100 {
			momentum = 0.8
		}
		for i := range y {
			vel[i] = momentum*vel[i] - learningRate*grad[i]
			y[i] += vel[i]
		}
		// Recenter.
		for k := 0; k < d; k++ {
			var mean float64
			for i := 0; i < n; i++ {
				mean += y[i*d+k]
			}
			mean /= float64(n)
			for i := 0; i < n; i++ {
				y[i*d+k] -= mean
			}
		}
	}

	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), y[i*d:(i+1)*d]...)
	}
	return out, nil
}

// inputAffinities computes row-conditional Gaussian affinities p_{j|i} with
// per-point bandwidths calibrated to the target perplexity via binary search
// on beta = 1/(2σ²).
func inputAffinities(xs [][]float64, perplexity float64) []float64 {
	n := len(xs)
	d2 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var dist float64
			for k := range xs[i] {
				diff := xs[i][k] - xs[j][k]
				dist += diff * diff
			}
			d2[i*n+j] = dist
			d2[j*n+i] = dist
		}
	}
	logU := math.Log(perplexity)
	P := make([]float64, n*n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		beta := 1.0
		lo, hi := 0.0, math.Inf(1)
		for iter := 0; iter < 50; iter++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = 0
					continue
				}
				row[j] = math.Exp(-d2[i*n+j] * beta)
				sum += row[j]
			}
			if sum < 1e-300 {
				sum = 1e-300
			}
			// Shannon entropy of the row distribution.
			var H float64
			for j := 0; j < n; j++ {
				if j == i || row[j] == 0 {
					continue
				}
				pj := row[j] / sum
				H -= pj * math.Log(pj)
			}
			diff := H - logU
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 {
				// Too entropic: narrow the Gaussian.
				lo = beta
				if math.IsInf(hi, 1) {
					beta *= 2
				} else {
					beta = (beta + hi) / 2
				}
			} else {
				hi = beta
				beta = (beta + lo) / 2
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			sum += row[j]
		}
		if sum < 1e-300 {
			sum = 1e-300
		}
		for j := 0; j < n; j++ {
			P[i*n+j] = row[j] / sum
		}
	}
	return P
}

// PairwiseSpread returns the mean pairwise Euclidean distance of an
// embedding — the scalar the drift experiment compares across time quarters
// ("ToR-level data is more dispersed" in Appendix F).
func PairwiseSpread(ys [][]float64) float64 {
	n := len(ys)
	if n < 2 {
		return 0
	}
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var d float64
			for k := range ys[i] {
				diff := ys[i][k] - ys[j][k]
				d += diff * diff
			}
			sum += math.Sqrt(d)
			cnt++
		}
	}
	return sum / float64(cnt)
}

// CentroidDistance returns the distance between the centroids of two point
// sets (used to quantify inter-quarter drift in the embedding space).
func CentroidDistance(a, b [][]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	d := len(a[0])
	ca := make([]float64, d)
	cb := make([]float64, d)
	for _, p := range a {
		for k := 0; k < d; k++ {
			ca[k] += p[k]
		}
	}
	for _, p := range b {
		for k := 0; k < d; k++ {
			cb[k] += p[k]
		}
	}
	var dist float64
	for k := 0; k < d; k++ {
		diff := ca[k]/float64(len(a)) - cb[k]/float64(len(b))
		dist += diff * diff
	}
	return math.Sqrt(dist)
}
