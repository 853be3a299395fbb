package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSIMDKernelsBitwise holds the AVX2 bodies of dot2x8, dotRows,
// gradRows, axpy, axpy2 and Adam's update, reached through the
// dispatchers, and on an AVX-512 CPU dot2x16's and dotRows' AVX-512
// bodies, against the Go bodies they replace, over every length 0–70:
// every remainder of the 4-groups, and n < 4, which never enters
// assembly; dot2x8 and dot2x16 also over one length longer than two
// colBlocks. dotRows runs over 0–17 rows and 8k±1 of them, so that every
// mix of eight-row, four-row and Go rows runs, at In 0–9 and
// 2·colBlock+7, where the Go remainder must continue the sums the
// assembly left, and must write exactly len(s) sums. First, on any CPU,
// it holds ExpInto against math.Exp on both of its paths (checkExpInto).
// Inputs mix ±0, denormals, values near ±1e±300 and ±Inf into normal
// ones, and dot2x8's, dot2x16's, dotRows' and gradRows' also NaN;
// dotRows also runs on ±0 alone. Every result must carry the same bits,
// except that a NaN need only be a NaN on both sides. dot2x8 runs at lane
// strides 8, 16 and 24, and dot2x16 at 16, 24 and 32, each half of it
// against dot2x8Go, from accumulators that already hold a sum. gradRows adds 0–9
// rows, some with a ±0 g over an input row holding ±Inf or NaN, into
// accumulators some of which start at −0. The Adam cases include groups
// that mix dead (g, m, v all +0) and live lanes, and hyperparameters
// under which computing a dead lane would not be the identity. Beyond
// this pairing, TestForwardKernelsMatchDot and figret's
// TestBatchedMatchesSequentialTrajectory hold the dispatched forward
// bodies — assembly on an AVX2 CPU — against the scalar dot with no
// further work, and TestWeightGradSkipsZeroDeltas holds pass 1 against a
// scalar walk. The forward bodies run under forEachForwardBody, so an
// AVX-512 CPU also covers the AVX2 ones.
func TestSIMDKernelsBitwise(t *testing.T) {
	if !useExpFMA {
		t.Log("math.Exp takes no FMA branch here: ExpInto runs math.Exp only")
	}
	for _, kernel := range []bool{useExpFMA, false} {
		checkExpInto(t, kernel)
	}
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go kernels run")
	}
	t.Logf("bodies: %s", kernelBodies())
	rng := rand.New(rand.NewSource(27))
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -3e-310, 2.5e-308,
		1e300, -1e300, 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1),
	}
	withNaN := append([]float64{math.NaN()}, specials...)
	// vecOf draws standard normals, a fraction wild of them replaced by a
	// value from special; vec draws from specials.
	vecOf := func(n int, wild float64, special []float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() < wild {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	vec := func(n int, wild float64) []float64 { return vecOf(n, wild, specials) }
	same := func(label string, n int, got, want []float64) {
		t.Helper()
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s, n=%d: [%d] = %v (%#x), Go body gives %v (%#x)",
					label, n, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	scalar := func() float64 { return vec(1, 0.3)[0] }
	// checkDot2x8 runs dot2x8 and dot2x8Go from the same non-zero
	// accumulators over an n-column block at lane stride ld.
	checkDot2x8 := func(n, ld int, wild float64) {
		t.Helper()
		x := vecOf(max(n*ld, 8), wild, withNaN)
		w0, w1 := vecOf(n, wild, withNaN), vecOf(n, wild, withNaN)
		var got0, got1 [8]float64
		copy(got0[:], vecOf(8, wild, withNaN))
		copy(got1[:], vecOf(8, wild, withNaN))
		want0, want1 := got0, got1
		dot2x8(x, ld, w0, w1, &got0, &got1)
		dot2x8Go(x, ld, w0, w1, 0, &want0, &want1)
		label := fmt.Sprintf("dot2x8 ld=%d wild=%v", ld, wild)
		same(label+" row 0", n, got0[:], want0[:])
		same(label+" row 1", n, got1[:], want1[:])
	}

	// checkDot2x16 runs dot2x16 and, on each eight-lane half, dot2x8Go
	// from the same non-zero accumulators over an n-column block at lane
	// stride ld.
	checkDot2x16 := func(n, ld int, wild float64) {
		t.Helper()
		x := vecOf(max(n*ld, 16), wild, withNaN)
		w0, w1 := vecOf(n, wild, withNaN), vecOf(n, wild, withNaN)
		var got0, got1 [16]float64
		copy(got0[:], vecOf(16, wild, withNaN))
		copy(got1[:], vecOf(16, wild, withNaN))
		want0, want1 := got0, got1
		dot2x16(x, ld, w0, w1, &got0, &got1)
		for h := 0; h < 16; h += 8 {
			dot2x8Go(x[h:], ld, w0, w1, 0, (*[8]float64)(want0[h:]), (*[8]float64)(want1[h:]))
		}
		label := fmt.Sprintf("dot2x16 ld=%d wild=%v", ld, wild)
		same(label+" row 0", n, got0[:], want0[:])
		same(label+" row 1", n, got1[:], want1[:])
	}
	// checkGradRows runs gradRows and gradRowsGo from the same
	// accumulators over k of k+2 input rows of n columns, in ascending
	// order; a third of the g are ±0 and the input rows hold NaN and ±Inf.
	zeros := []float64{0, math.Copysign(0, -1)}
	checkGradRows := func(n, k int, wild float64) {
		t.Helper()
		x := vecOf((k+2)*n, max(wild, 0.1), withNaN)
		off := make([]int, 0, k)
		for r := 0; len(off) < k; r++ {
			if k+2-r > k-len(off) && rng.Intn(4) == 0 {
				continue // skip a row while enough are left
			}
			off = append(off, r*n)
		}
		g := vecOf(k, wild, withNaN)
		for j := range g {
			if rng.Intn(3) == 0 {
				g[j] = zeros[rng.Intn(2)]
			}
		}
		if k >= 2 { // a +0 and a −0 g, each over ±Inf and NaN
			g[0], g[1] = zeros[0], zeros[1]
			for j, v := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[:min(n, 3)] {
				x[off[0]+j], x[off[1]+n-1-j] = v, v
			}
		}
		got := vecOf(n, wild, withNaN)
		for i := range got {
			if rng.Intn(3) == 0 {
				got[i] = math.Copysign(0, -1)
			}
		}
		want := append([]float64(nil), got...)
		gradRows(got, x, off, g)
		gradRowsGo(want, x, off, g, 0)
		same(fmt.Sprintf("gradRows k=%d wild=%v", k, wild), n, got, want)
	}

	// checkDotRows runs dotRows and dotRowsGo over rows × n weights and
	// an n-long x, both drawn from special with a fraction wild of them.
	// The sums land in a longer buffer, whose tail must stay untouched.
	checkDotRows := func(rows, n int, wild float64, special []float64) {
		t.Helper()
		w, x := vecOf(rows*n, wild, special), vecOf(n, wild, special)
		got := make([]float64, rows+8)
		for i := range got {
			got[i] = 3.5 // every sum must be written, and nothing past them
		}
		want := make([]float64, rows)
		dotRows(got[:rows], w, x)
		dotRowsGo(want, w, x)
		label := fmt.Sprintf("dotRows rows=%d wild=%v", rows, wild)
		same(label, n, got[:rows], want)
		for i, v := range got[rows:] {
			if v != 3.5 {
				t.Fatalf("%s, n=%d: wrote s[%d] = %v past the last row", label, n, rows+i, v)
			}
		}
	}
	forEachForwardBody(t, func() {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 25, 63, 65} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2*colBlock + 7} {
				for _, wild := range []float64{0, 0.1, 0.5} {
					checkDotRows(rows, n, wild, withNaN)
				}
				// sums of ±0 alone: T = −0 must still leave s = +0 + T = +0
				checkDotRows(rows, n, 1, zeros)
			}
		}
	})

	for _, ld := range []int{8, 16, 24} {
		checkDot2x8(2*colBlock+7, ld, 0.1)
	}
	if useAVX512 {
		for _, ld := range []int{16, 24, 32} {
			checkDot2x16(2*colBlock+7, ld, 0.1)
		}
	}
	for _, k := range []int{1, 9} {
		checkGradRows(2*colBlock+7, k, 0.1)
	}
	for n := 0; n <= 70; n++ {
		for _, wild := range []float64{0, 0.1, 0.5} {
			label := fmt.Sprintf("wild=%v", wild)

			for _, ld := range []int{8, 16, 24} {
				checkDot2x8(n, ld, wild)
			}
			if useAVX512 {
				for _, ld := range []int{16, 24, 32} {
					checkDot2x16(n, ld, wild)
				}
			}
			for k := 0; k <= 9; k++ {
				checkGradRows(n, k, wild)
			}

			src, u, v := vec(n, wild), vec(n, wild), vec(n, wild)
			a, b := scalar(), scalar()
			dst := vec(n, wild)
			ref := append([]float64(nil), dst...)
			axpy(dst, src, a)
			axpyGo(ref, src, a)
			same("axpy "+label, n, dst, ref)
			axpy2(dst, u, v, a, b)
			axpy2Go(ref, u, v, a, b)
			same("axpy2 "+label, n, dst, ref)
		}

		for _, opt := range []*Adam{
			NewAdam(3e-3),
			{LR: 0.5, Beta1: 0.5, Beta2: 0.25, Epsilon: 0},
			{LR: math.Inf(1), Beta1: -0.5, Beta2: 1.5, Epsilon: -1e-8},
			{LR: 1e-3, Beta1: math.NaN(), Beta2: 0.999, Epsilon: 1e-8},
		} {
			for _, wild := range []float64{0, 0.2} {
				label := fmt.Sprintf("Adam lr=%v β₁=%v β₂=%v ε=%v wild=%v", opt.LR, opt.Beta1, opt.Beta2, opt.Epsilon, wild)
				p, gr, m, v := vec(n, wild), vec(n, wild), vec(n, wild), vec(n, wild)
				for i := range p {
					if rng.Intn(3) == 0 { // a dead parameter
						gr[i], m[i], v[i] = 0, 0, 0
					}
				}
				bufs := [][]float64{p, gr, m, v}
				refs := make([][]float64, len(bufs))
				for i, buf := range bufs {
					refs[i] = append([]float64(nil), buf...)
				}
				c1, c2 := 1-math.Pow(0.9, 3), 1-math.Pow(0.999, 3)
				opt.update(p, gr, m, v, c1, c2)
				opt.updateGo(refs[0], refs[1], refs[2], refs[3], c1, c2)
				for i, name := range []string{"param", "gradient", "m", "v"} {
					same(label+" "+name, n, bufs[i], refs[i])
				}
			}
		}
	}
}

// kernelBodies names the forward and training kernels' bodies the
// dispatchers take on this CPU, for the tests' logs: the batch-major
// forward's, the batch-1 forward's and the rest.
func kernelBodies() string {
	switch {
	case useAVX512:
		return "AVX-512 dot2x16 and dotRows8 (dotRows4 on a last row quad), AVX2 elsewhere"
	case useAVX2:
		return "AVX2: dot2x8, dotRows4 and the rest"
	default:
		return "Go"
	}
}

// forEachForwardBody runs f with each forward body this CPU has: with the
// AVX-512 bodies of dot2x16 and dotRows and then, switched off, with the
// AVX2 ones alone, so that an AVX-512 CPU still covers the AVX2 path. It
// logs which ran.
func forEachForwardBody(t *testing.T, f func()) {
	t.Helper()
	on := useAVX512
	defer func() { useAVX512 = on }()
	for _, wide := range []bool{true, false} {
		if wide && !on {
			continue
		}
		useAVX512 = wide
		t.Logf("bodies: %s", kernelBodies())
		f()
	}
}

// expSpecials are inputs at and around the edges of expAVX2's range
// −1022 ≤ k = round(x·log₂e) ≤ 1023, and beyond it: k = −1022/−1023
// about x = −708.74, denormal results, −745.2 (which underflows to 0),
// k = 1023/1024 about x = 709.44, math's overflow threshold 709.78, ±0,
// denormal inputs, ±Inf, NaN, and arguments whose k does not fit an int32.
var expSpecials = func() []float64 {
	v := []float64{
		-708.4, -708.74, -708.75, -709.0, -720, -740, -745.13, -745.2,
		709.0, 709.43, 709.44, 709.6, 709.782712893384, 709.8,
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3e-310, 2.5e-308,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300,
	}
	for _, k := range []float64{-1022.5, 1023.5} { // ulps either side of a rounding edge
		x := k * math.Ln2
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			y := x
			for range 3 {
				y = math.Nextafter(y, dir)
				v = append(v, y)
			}
		}
		v = append(v, x)
	}
	return v
}()

// checkExpInto holds expInto, with the assembly kernel or without it,
// against math.Exp over every length 0–70 with a share of expSpecials
// mixed into normal arguments, on a slice whose only special sits mid-way
// (the kernel must resume after that group), and aliased (dst == src).
// Every result carries math.Exp's bits; a NaN need only be a NaN.
func checkExpInto(t *testing.T, kernel bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	check := func(label string, src []float64, alias bool) {
		t.Helper()
		want := make([]float64, len(src))
		for i, x := range src {
			want[i] = math.Exp(x)
		}
		got := make([]float64, len(src))
		if alias {
			copy(got, src)
			expInto(got, got, kernel)
		} else {
			expInto(got, src, kernel)
		}
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("ExpInto kernel=%v %s, n=%d: exp(%v) = %v (%#x), math.Exp gives %v (%#x)",
					kernel, label, len(src), src[i], g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for _, wild := range []float64{0, 0.1, 0.5} {
			src := make([]float64, n)
			for i := range src {
				if rng.Float64() < wild {
					src[i] = expSpecials[rng.Intn(len(expSpecials))]
				} else {
					src[i] = 30 * rng.NormFloat64()
				}
			}
			check(fmt.Sprintf("wild=%v", wild), src, false)
			check(fmt.Sprintf("wild=%v aliased", wild), src, true)
		}
	}
	for _, x := range expSpecials {
		src := make([]float64, 23)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		src[9] = x
		check(fmt.Sprintf("special %v mid-slice", x), src, false)
		check(fmt.Sprintf("special %v mid-slice aliased", x), src, true)
	}
}

// FuzzExpInto holds ExpInto against math.Exp on arbitrary arguments, each
// one at several lane and group positions of a 13-element slice: the bits
// must match, except that a NaN need only be a NaN. Seeds in
// testdata/fuzz/FuzzExpInto.
func FuzzExpInto(f *testing.F) {
	f.Add(0.5, -1.25, 3.0, -20.0, 7.75)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		src := []float64{a, b, c, d, e, a, b, c, d, e, a, b, c}
		dst := make([]float64, len(src))
		ExpInto(dst, src)
		ExpInto(src, src)
		for i, x := range []float64{a, b, c, d, e, a, b, c, d, e, a, b, c} {
			w := math.Exp(x)
			for _, g := range []float64{dst[i], src[i]} {
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("[%d] exp(%v) = %v (%#x), math.Exp gives %v (%#x)",
						i, x, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	})
}

// TestGatherKernelsBitwise holds the incidence-walk kernels of gather.go,
// dispatched (assembly on an AVX2 CPU) and as Go bodies, against a one-lane
// walk of the same layout (checkGatherKernels): QuadSum, QuadScaledSum,
// QuadDot and QuadMax over 0–70 lists of 0–7 ids, so that the last quad
// is partial and its lanes past the last list are all padding, and SubAt,
// MulAt and ChainAt over every length 0–70. The padding id indexes the
// last slot of x, which holds +0, −Inf or an ordinary value. Operands mix
// NaN, ±0, ±Inf, denormals and huge values into normal ones, and the
// scales hold ±0 beside an infinite x, where skipping the zero-scale mask
// would leave a NaN. One case draws only from {+0, −0, −Inf, NaN}: the max
// must pass over NaN and keep the first of two equal zeros.
func TestGatherKernelsBitwise(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the dispatchers run the Go bodies")
	}
	rng := rand.New(rand.NewSource(33))
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -3e-310, 1e300, -1e300,
	}
	zeros := []float64{0, math.Copysign(0, -1), math.Inf(-1), math.NaN()}
	vec := func(n int, wild float64, from []float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() < wild {
				v[i] = from[rng.Intn(len(from))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	for n := 0; n <= 70; n++ {
		for _, c := range []struct {
			wild float64
			from []float64
			pad  float64
		}{
			{0, specials, 0},
			{0.1, specials, math.Inf(-1)},
			{0.5, specials, 1.5},
			{0.9, zeros, 0},
		} {
			m := 1 + rng.Intn(3*n+1)
			x, y := vec(m, c.wild, c.from), vec(m, c.wild, c.from)
			x[m-1], y[m-1] = c.pad, c.pad
			label := fmt.Sprintf("n=%d wild=%v pad=%v", n, c.wild, c.pad)
			checkGatherKernels(t, label, rng, n, x, y, vec(4*n+4, c.wild, c.from), vec(n, c.wild, c.from))
		}
	}
}

// FuzzGatherKernels runs checkGatherKernels on arbitrary operands: x and y
// cycle a, b, c and the scales and dst cycle them the other way round, over
// a layout drawn from seed. Seeds in testdata/fuzz/FuzzGatherKernels.
func FuzzGatherKernels(f *testing.F) {
	f.Add(int64(1), uint8(9), 0.5, math.Copysign(0, -1), math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, a, b, c float64) {
		rng := rand.New(rand.NewSource(seed))
		cycle := func(n int, v ...float64) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = v[i%len(v)]
			}
			return x
		}
		k := int(n) % 71
		m := 1 + int(n)%13
		checkGatherKernels(t, "fuzz", rng, k, cycle(m, a, b, c), cycle(m, b, c, a), cycle(4*k+4, c, b, a), cycle(k, c, a, b))
	})
}

// checkGatherKernels draws n lists of ids below len(x)−1, lays them out four
// abreast padded with id len(x)−1, and holds every Quad kernel over them and
// every At kernel over n elements (at drawn below len(x), g = y[:n] cycled
// when y is shorter) against a one-lane walk, dispatched and as Go bodies.
// Every result carries the walk's bits, except that a NaN need only be a
// NaN.
func checkGatherKernels(t *testing.T, label string, rng *rand.Rand, n int, x, y, scale, dst []float64) {
	t.Helper()
	m := len(x)
	lists := make([][]int32, n)
	for i := range lists {
		lists[i] = make([]int32, rng.Intn(8))
		for k := range lists[i] {
			lists[i][k] = int32(rng.Intn(m))
		}
	}
	nq := (n + 3) / 4
	start := make([]int32, nq+1)
	for q := 0; q < nq; q++ {
		longest := 0
		for _, l := range lists[4*q : min(4*q+4, n)] {
			longest = max(longest, len(l))
		}
		start[q+1] = start[q] + 4*int32(longest)
	}
	ids := make([]int32, start[nq])
	for i := range ids {
		ids[i] = int32(m - 1)
	}
	for i, l := range lists {
		for k, id := range l {
			ids[int(start[i/4])+4*k+i%4] = id
		}
	}

	same := func(kernel string, got, want []float64) {
		t.Helper()
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s %s: [%d] = %v (%#x), one-lane walk gives %v (%#x)",
					kernel, label, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	// walk folds lane l of quad q from init with step, the one-lane loop.
	walk := func(init float64, step func(acc float64, id int32, lane int) float64) []float64 {
		out := make([]float64, 4*nq)
		for q := 0; q < nq; q++ {
			for l := 0; l < 4; l++ {
				acc := init
				for k := int(start[q]) + l; k < int(start[q+1]); k += 4 {
					acc = step(acc, ids[k], 4*q+l)
				}
				out[4*q+l] = acc
			}
		}
		return out
	}
	quads := []struct {
		name     string
		want     []float64
		dispatch func(out []float64)
		goBody   func(out []float64)
	}{
		{"QuadSum", walk(0, func(s float64, id int32, _ int) float64 { return s + x[id] }),
			func(out []float64) { QuadSum(out, x, ids, start) },
			func(out []float64) { quadSumGo(out, x, ids, start) }},
		{"QuadScaledSum", func() []float64 {
			out := walk(0, func(s float64, id int32, l int) float64 { return s + x[id]*scale[l] })
			for l := range out {
				if scale[l] == 0 {
					out[l] = 0
				}
			}
			return out
		}(),
			func(out []float64) { QuadScaledSum(out, x, scale, ids, start) },
			func(out []float64) { quadScaledSumGo(out, x, scale, ids, start) }},
		{"QuadDot", walk(0, func(s float64, id int32, _ int) float64 { return s + x[id]*y[id] }),
			func(out []float64) { QuadDot(out, x, y, ids, start) },
			func(out []float64) { quadDotGo(out, x, y, ids, start) }},
		{"QuadMax", walk(math.Inf(-1), func(mx float64, id int32, _ int) float64 {
			if x[id] > mx {
				return x[id]
			}
			return mx
		}),
			func(out []float64) { QuadMax(out, x, ids, start) },
			func(out []float64) { quadMaxGo(out, x, ids, start) }},
	}
	for _, k := range quads {
		for _, run := range []struct {
			path string
			f    func([]float64)
		}{{"dispatched", k.dispatch}, {"Go body", k.goBody}} {
			out := make([]float64, 4*nq)
			for i := range out {
				out[i] = math.NaN() // every lane must be written
			}
			run.f(out)
			same(k.name+" "+run.path, out, k.want)
		}
	}

	at := make([]int32, n)
	g := make([]float64, n)
	for i := range at {
		at[i] = int32(rng.Intn(m))
		g[i] = y[i%len(y)]
	}
	r := dst
	v := x
	vec := func(f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	xs := vec(func(i int) float64 { return y[(i+1)%len(y)] })
	subWant := vec(func(i int) float64 { return xs[i] - v[at[i]] })
	mulWant := vec(func(i int) float64 { return r[i] * v[at[i]] })
	chainWant := vec(func(i int) float64 { return r[i] * (g[i] - v[at[i]]) })
	for _, run := range []struct {
		path     string
		sub, mul func(dst []float64)
		chain    func(dst []float64)
	}{
		{"dispatched",
			func(d []float64) { SubAt(d, xs, v, at) },
			func(d []float64) { MulAt(d, v, at) },
			func(d []float64) { ChainAt(d, r, g, v, at) }},
		{"Go body",
			func(d []float64) { subAtGo(d, xs, v, at) },
			func(d []float64) { mulAtGo(d, v, at) },
			func(d []float64) { chainAtGo(d, r, g, v, at) }},
	} {
		out := make([]float64, n)
		run.sub(out)
		same("SubAt "+run.path, out, subWant)
		copy(out, r)
		run.mul(out)
		same("MulAt "+run.path, out, mulWant)
		run.chain(out)
		same("ChainAt "+run.path, out, chainWant)
	}
}
