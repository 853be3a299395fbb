// Package nn is a small, dependency-free neural-network library sufficient
// to reproduce the FIGRET/DOTE models: fully connected layers with manual
// backpropagation, ReLU/Sigmoid activations, He/Xavier initialization, and
// the Adam optimizer. It substitutes for PyTorch in the original artifact
// (see DESIGN.md §2); everything is float64 and deterministic given a seed.
package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// Activation selects the nonlinearity applied after a Dense layer.
type Activation int

const (
	// Identity applies no nonlinearity.
	Identity Activation = iota
	// ReLU applies max(0, x).
	ReLU
	// Sigmoid applies 1/(1+e^-x).
	Sigmoid
)

func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// derivFromOutput returns dσ/dx expressed through the activation output y.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Dense is a fully connected layer y = act(Wx + b) with weight matrix W of
// shape [Out][In] stored row-major.
type Dense struct {
	In, Out int
	Act     Activation
	W       []float64 // len Out*In
	B       []float64 // len Out

	// Gradients accumulated by Backward.
	GW []float64
	GB []float64

	// Cached forward state for backprop (single-sample path). x is an
	// owned copy of the input: callers may reuse their input buffer
	// between Forward and Backward without corrupting gradients.
	x  []float64 // owned copy of input
	y  []float64 // post-activation output
	g  []float64 // owned copy of dL/dy (clobbered by the batch kernel)
	dx []float64 // reusable dL/dx buffer
}

// NewDense returns a Dense layer initialized with He initialization (scaled
// for ReLU) or Xavier for other activations, using rng for determinism.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid layer shape %dx%d", in, out))
	}
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  make([]float64, out*in),
		B:  make([]float64, out),
		GW: make([]float64, out*in),
		GB: make([]float64, out),
	}
	var scale float64
	if act == ReLU {
		scale = math.Sqrt(2 / float64(in)) // He
	} else {
		scale = math.Sqrt(1 / float64(in)) // Xavier-ish
	}
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// parallelThreshold is the work size (multiply-adds of a layer pass,
// elements of an optimizer sweep) at and above which the kernels shard
// across goroutines. Chosen so small nets stay single-threaded.
const parallelThreshold = 1 << 16

// Forward computes the layer output for x, caching state for Backward. It
// is a thin wrapper over BatchForward with batch size 1: x is copied into
// an owned buffer, so the caller may reuse its input buffer between
// Forward and Backward. The returned slice is owned by the layer and valid
// until the next call.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), d.In))
	}
	if d.x == nil {
		d.x = make([]float64, d.In)
		d.y = make([]float64, d.Out)
	}
	copy(d.x, x)
	d.BatchForward(d.x, d.y, 1)
	return d.y
}

// Backward takes dL/dy (post-activation) and accumulates dL/dW, dL/dB into
// GW, GB; it returns dL/dx. It is a thin wrapper over BatchBackward with
// batch size 1; dy is not modified, and the returned slice is owned by the
// layer (reused across calls — no per-step allocation).
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic(fmt.Sprintf("nn: grad size %d, want %d", len(dy), d.Out))
	}
	if d.g == nil {
		d.g = make([]float64, d.Out)
		d.dx = make([]float64, d.In)
	}
	copy(d.g, dy)
	d.BatchBackward(d.x, d.y, d.g, d.dx, 1)
	return d.dx
}

// ZeroGrads clears accumulated gradients.
func (d *Dense) ZeroGrads() {
	for i := range d.GW {
		d.GW[i] = 0
	}
	for i := range d.GB {
		d.GB[i] = 0
	}
}

func dot(a, b []float64) float64 {
	var s float64
	n := len(a)
	// 4-way unrolled; reslicing b to n leaves check_bce reporting four
	// IsInBounds per step (on a; they cover b) and one in the remainder loop.
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// fanOut resolves the worker bound a kernel was handed. The public entry
// points hand down 0, meaning GOMAXPROCS; the data-parallel engine hands
// down its own worker count.
// Kernels call it only once they have found themselves at or above
// parallelThreshold: runtime.GOMAXPROCS takes the scheduler's lock, and a
// small network's Forward runs many thousand times a second from several
// goroutines.
func fanOut(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// parallelFor cuts [0, n) into at most workers contiguous chunks and runs
// f(k, lo, hi) on chunk k, concurrently when there is more than one: chunk 0
// on the calling goroutine, each other on its own. The chunking decides only
// which goroutine runs an index, so a caller whose indices write disjoint
// memory gets the same bits for every workers; k lets one that needs scratch
// keep one per chunk.
func parallelFor(workers, n int, f func(k, lo, hi int)) {
	nsh := workers
	if nsh > n {
		nsh = n
	}
	if nsh <= 1 {
		f(0, 0, n)
		return
	}
	chunk := (n + nsh - 1) / nsh
	var wg sync.WaitGroup
	for k := 1; k*chunk < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			f(k, k*chunk, min((k+1)*chunk, n))
		}(k)
	}
	f(0, 0, chunk)
	wg.Wait()
}

// MLP is a feed-forward stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes (len >= 2): hidden layers
// use hiddenAct, the output layer uses outAct. The paper's architecture is
// sizes = [input, 128, 128, 128, 128, 128, output], hiddenAct = ReLU,
// outAct = Sigmoid (Appendix D.4).
func NewMLP(sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i == len(sizes)-2 {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward runs the network on a single input vector.
func (m *MLP) Forward(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dL/d(output) through the network, accumulating
// parameter gradients; it returns dL/d(input).
func (m *MLP) Backward(dOut []float64) []float64 {
	g := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].Backward(g)
	}
	return g
}

// ZeroGrads clears all accumulated gradients.
func (m *MLP) ZeroGrads() {
	for _, l := range m.Layers {
		l.ZeroGrads()
	}
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W) + len(l.B)
	}
	return n
}

// VisitParams calls f once per (params, grads) tensor pair; used by
// optimizers to avoid copying.
func (m *MLP) VisitParams(f func(params, grads []float64)) {
	for _, l := range m.Layers {
		f(l.W, l.GW)
		f(l.B, l.GB)
	}
}

// mlpJSON is the serialization schema.
type mlpJSON struct {
	Sizes []int        `json:"sizes"`
	Acts  []Activation `json:"acts"`
	W     [][]float64  `json:"w"`
	B     [][]float64  `json:"b"`
}

// parts lays m out in the serialization schema, aliasing its tensors.
func (m *MLP) parts() mlpJSON {
	j := mlpJSON{}
	for i, l := range m.Layers {
		if i == 0 {
			j.Sizes = append(j.Sizes, l.In)
		}
		j.Sizes = append(j.Sizes, l.Out)
		j.Acts = append(j.Acts, l.Act)
		j.W = append(j.W, l.W)
		j.B = append(j.B, l.B)
	}
	return j
}

// MarshalJSON serializes architecture and weights.
func (m *MLP) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.parts())
}

// UnmarshalJSON restores architecture and weights.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var j mlpJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	return m.fromParts(j)
}

// Snapshot returns an independent copy of m — the same architecture and
// parameters in fresh tensors, zero gradients, no forward state — built
// and validated as UnmarshalJSON(MarshalJSON(m)) would build it, bit for
// bit, without the text.
func (m *MLP) Snapshot() (*MLP, error) {
	j := m.parts()
	for i := range j.W {
		j.W[i], j.B[i] = slices.Clone(j.W[i]), slices.Clone(j.B[i])
	}
	out := &MLP{}
	if err := out.fromParts(j); err != nil {
		return nil, err
	}
	return out, nil
}

// fromParts validates a decoded or snapshotted schema and builds the
// layers over its tensors, which m owns from then on.
func (m *MLP) fromParts(j mlpJSON) error {
	if len(j.Sizes) < 2 || len(j.W) != len(j.Sizes)-1 || len(j.Acts) != len(j.W) || len(j.B) != len(j.W) {
		return fmt.Errorf("nn: malformed MLP JSON")
	}
	m.Layers = nil
	for i := 0; i+1 < len(j.Sizes); i++ {
		in, out := j.Sizes[i], j.Sizes[i+1]
		if in <= 0 || out <= 0 {
			return fmt.Errorf("nn: layer %d has non-positive shape %dx%d", i, in, out)
		}
		if j.Acts[i] < Identity || j.Acts[i] > Sigmoid {
			return fmt.Errorf("nn: layer %d has unknown activation code %d", i, int(j.Acts[i]))
		}
		// in <= len(W) first: in*out can wrap for sizes no slice can have.
		if in > len(j.W[i]) || len(j.W[i]) != in*out || len(j.B[i]) != out {
			return fmt.Errorf("nn: layer %d weight shape mismatch", i)
		}
		// JSON cannot carry NaN or ±Inf (json.Marshal refuses them); a
		// snapshot of a diverged in-process model can.
		for _, t := range [][]float64{j.W[i], j.B[i]} {
			for _, v := range t {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("nn: layer %d has a non-finite parameter", i)
				}
			}
		}
		d := &Dense{
			In: in, Out: out, Act: j.Acts[i],
			W: j.W[i], B: j.B[i],
			GW: make([]float64, in*out),
			GB: make([]float64, out),
		}
		m.Layers = append(m.Layers, d)
	}
	return nil
}
