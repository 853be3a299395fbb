package nn

import (
	"fmt"
	"math"
)

// This file holds the gradient solver's incidence walks (DESIGN.md §4).
// The Quad kernels walk a lane-interleaved layout four lists abreast:
// quad q holds lists 4q..4q+3 in ids[start[q]:start[q+1]], entry k*4+lane
// being the k-th id of list 4q+lane, each quad a whole number of 4-steps
// (te.PathSet's PathGroups, EdgeQuads and PairQuads). Lane l of quad q
// folds its list into out[4q+l] in k order. The At kernels run over a
// vector, gathering one operand through an index vector. On AVX2 each lane
// is one VGATHERDPD lane performing the Go body's operations in its order,
// with no fused multiply-add, so both paths give the same bits.
//
// Lengths are checked, ids are not: every id must index the slices it
// gathers from. The Go bodies panic on one that does not, as a slice
// expression would, but the assembly reads wherever it points. The callers
// pass layouts te.PathSet built, whose ids are in range by construction.

// QuadSum sets out[4q+l] = Σ_k x[id_k], each sum starting at +0.
func QuadSum(out, x []float64, ids, start []int32) {
	checkQuads(out, ids, start)
	if useAVX2 {
		quadSumAVX2(out, x, ids, start)
		return
	}
	quadSumGo(out, x, ids, start)
}

// QuadScaledSum sets out[4q+l] = Σ_k x[id_k]·s, s = scale[4q+l], each sum
// starting at +0, and out[4q+l] = +0 where s == 0, whatever x holds.
func QuadScaledSum(out, x, scale []float64, ids, start []int32) {
	scale = scale[:4*checkQuads(out, ids, start)]
	if useAVX2 {
		quadScaledSumAVX2(out, x, scale, ids, start)
		return
	}
	quadScaledSumGo(out, x, scale, ids, start)
}

// QuadDot sets out[4q+l] = Σ_k x[id_k]·y[id_k], each sum starting at +0.
func QuadDot(out, x, y []float64, ids, start []int32) {
	checkQuads(out, ids, start)
	if useAVX2 {
		quadDotAVX2(out, x, y, ids, start)
		return
	}
	quadDotGo(out, x, y, ids, start)
}

// QuadMax sets out[4q+l] to the fold of greater over x[id_k] from −Inf:
// the max, where a NaN is passed over and of two equal zeros the earlier
// stays.
func QuadMax(out, x []float64, ids, start []int32) {
	checkQuads(out, ids, start)
	if useAVX2 {
		quadMaxAVX2(out, x, ids, start)
		return
	}
	quadMaxGo(out, x, ids, start)
}

// checkQuads returns the number of quads, after checking that their ids
// and their outputs are there.
func checkQuads(out []float64, ids, start []int32) int {
	if len(start) == 0 {
		return 0
	}
	n := len(start) - 1
	if len(out) < 4*n || int(start[n]) > len(ids) {
		panic(fmt.Sprintf("nn: %d quads over %d ids into %d outputs", n, len(ids), len(out)))
	}
	return n
}

// SubAt sets dst[i] = x[i] − v[at[i]] for every i < len(dst).
func SubAt(dst, x, v []float64, at []int32) {
	x, at = x[:len(dst)], at[:len(dst)]
	if useAVX2 {
		subAtAVX2(dst, x, v, at)
		k := len(dst) &^ 3
		dst, x, at = dst[k:], x[k:], at[k:]
	}
	subAtGo(dst, x, v, at)
}

// MulAt sets dst[i] = dst[i]·v[at[i]] for every i < len(dst).
func MulAt(dst, v []float64, at []int32) {
	at = at[:len(dst)]
	if useAVX2 {
		mulAtAVX2(dst, v, at)
		k := len(dst) &^ 3
		dst, at = dst[k:], at[k:]
	}
	mulAtGo(dst, v, at)
}

// ChainAt sets dst[i] = r[i]·(g[i] − v[at[i]]) for every i < len(dst): the
// chain rule of a softmax whose group means Σ r·g are v.
func ChainAt(dst, r, g, v []float64, at []int32) {
	r, g, at = r[:len(dst)], g[:len(dst)], at[:len(dst)]
	if useAVX2 {
		chainAtAVX2(dst, r, g, v, at)
		k := len(dst) &^ 3
		dst, r, g, at = dst[k:], r[k:], g[k:], at[k:]
	}
	chainAtGo(dst, r, g, v, at)
}

func quadSumGo(out, x []float64, ids, start []int32) {
	for q := 0; q+1 < len(start); q++ {
		lanes := ids[start[q]:start[q+1]]
		var s0, s1, s2, s3 float64
		for ; len(lanes) >= 4; lanes = lanes[4:] {
			s0 += x[lanes[0]]
			s1 += x[lanes[1]]
			s2 += x[lanes[2]]
			s3 += x[lanes[3]]
		}
		o := (*[4]float64)(out[4*q:])
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}

func quadScaledSumGo(out, x, scale []float64, ids, start []int32) {
	for q := 0; q+1 < len(start); q++ {
		lanes := ids[start[q]:start[q+1]]
		c := (*[4]float64)(scale[4*q:])
		var s0, s1, s2, s3 float64
		for ; len(lanes) >= 4; lanes = lanes[4:] {
			s0 += x[lanes[0]] * c[0]
			s1 += x[lanes[1]] * c[1]
			s2 += x[lanes[2]] * c[2]
			s3 += x[lanes[3]] * c[3]
		}
		o := (*[4]float64)(out[4*q:])
		o[0], o[1], o[2], o[3] = zeroIfZero(s0, c[0]), zeroIfZero(s1, c[1]), zeroIfZero(s2, c[2]), zeroIfZero(s3, c[3])
	}
}

func zeroIfZero(s, c float64) float64 {
	if c == 0 {
		return 0
	}
	return s
}

func quadDotGo(out, x, y []float64, ids, start []int32) {
	for q := 0; q+1 < len(start); q++ {
		lanes := ids[start[q]:start[q+1]]
		var s0, s1, s2, s3 float64
		for ; len(lanes) >= 4; lanes = lanes[4:] {
			s0 += x[lanes[0]] * y[lanes[0]]
			s1 += x[lanes[1]] * y[lanes[1]]
			s2 += x[lanes[2]] * y[lanes[2]]
			s3 += x[lanes[3]] * y[lanes[3]]
		}
		o := (*[4]float64)(out[4*q:])
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}

func quadMaxGo(out, x []float64, ids, start []int32) {
	for q := 0; q+1 < len(start); q++ {
		lanes := ids[start[q]:start[q+1]]
		m0, m1, m2, m3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
		for ; len(lanes) >= 4; lanes = lanes[4:] {
			m0 = greater(x[lanes[0]], m0)
			m1 = greater(x[lanes[1]], m1)
			m2 = greater(x[lanes[2]], m2)
			m3 = greater(x[lanes[3]], m3)
		}
		o := (*[4]float64)(out[4*q:])
		o[0], o[1], o[2], o[3] = m0, m1, m2, m3
	}
}

// greater is `if v > mx { mx = v }` without a branch: a NaN v leaves mx as
// it is, and of two equal zeros mx keeps its sign. The builtin max differs
// on both.
func greater(v, mx float64) float64 {
	var take uint64
	if v > mx {
		take = 1
	}
	vb, mb := math.Float64bits(v), math.Float64bits(mx)
	return math.Float64frombits(mb ^ (mb^vb)&-take)
}

func subAtGo(dst, x, v []float64, at []int32) {
	x, at = x[:len(dst)], at[:len(dst)]
	for i, j := range at {
		dst[i] = x[i] - v[j]
	}
}

func mulAtGo(dst, v []float64, at []int32) {
	at = at[:len(dst)]
	for i, j := range at {
		dst[i] *= v[j]
	}
}

func chainAtGo(dst, r, g, v []float64, at []int32) {
	r, g, at = r[:len(dst)], g[:len(dst)], at[:len(dst)]
	for i, j := range at {
		dst[i] = r[i] * (g[i] - v[j])
	}
}
