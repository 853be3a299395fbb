// Package traffic provides demand matrices, the synthetic workload
// generators standing in for the paper's datasets (GEANT WAN traces, Meta
// PoD/ToR data-center traces, the pFabric flow workload, and gravity-model
// WAN traffic), traffic statistics (per-pair variance, cosine-similarity
// burstiness analysis), and the perturbation machinery behind Tables 3 and 5.
//
// A demand snapshot is a flat []float64 indexed by te.Pairs pair index; a
// Trace is an ordered sequence of snapshots.
package traffic

import (
	"fmt"

	"figret/internal/te"
)

// Trace is a time-ordered sequence of demand matrices over a fixed vertex
// set. Snapshots share the pair indexing of Pairs.
//
// View contract: Slice (and Split, built on it) returns a *view* — the
// snapshot vectors are shared with the parent, so mutating a demand entry
// through a view is visible in the parent and vice versa. The snapshot
// *index structure* is not shared in the other direction: appending to a
// view never alters the parent (views are capacity-clipped, so Append
// reallocates the view's index instead of clobbering the parent's backing
// array). Use Clone for a fully independent copy.
type Trace struct {
	Pairs     te.Pairs
	Snapshots [][]float64
}

// NewTrace allocates an empty trace for n vertices.
func NewTrace(n int) *Trace {
	return &Trace{Pairs: te.NewPairs(n)}
}

// Len returns the number of snapshots.
func (t *Trace) Len() int { return len(t.Snapshots) }

// At returns snapshot i (not a copy).
func (t *Trace) At(i int) []float64 { return t.Snapshots[i] }

// Append adds a copy of snapshot d; it must have Pairs.Count() entries.
// Copying makes Append safe for streaming ingesters that reuse their read
// buffer between snapshots — the trace never retains a caller's slice, so
// later writes to d cannot corrupt history. Use At to mutate a stored
// snapshot in place, and AppendOwned to hand over a freshly-built slice
// without the copy.
func (t *Trace) Append(d []float64) error {
	if len(d) != t.Pairs.Count() {
		return fmt.Errorf("traffic: snapshot has %d entries, want %d", len(d), t.Pairs.Count())
	}
	return t.AppendOwned(append([]float64(nil), d...))
}

// AppendOwned adds snapshot d transferring ownership: the trace retains d
// itself, so the caller must not write to it afterwards. It is the
// zero-copy path for producers that build a fresh slice per snapshot
// (generators, deserializers, ingest queues that already copied).
func (t *Trace) AppendOwned(d []float64) error {
	if len(d) != t.Pairs.Count() {
		return fmt.Errorf("traffic: snapshot has %d entries, want %d", len(d), t.Pairs.Count())
	}
	t.Snapshots = append(t.Snapshots, d)
	return nil
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{Pairs: t.Pairs, Snapshots: make([][]float64, len(t.Snapshots))}
	for i, s := range t.Snapshots {
		c.Snapshots[i] = append([]float64(nil), s...)
	}
	return c
}

// Slice returns a view of snapshots [from, to). Snapshot vectors are
// shared with the parent (see the Trace view contract); the view's
// capacity is clipped to its length, so appending to the view reallocates
// instead of overwriting the parent's snapshots past to.
func (t *Trace) Slice(from, to int) *Trace {
	if from < 0 || to > t.Len() || from > to {
		panic(fmt.Sprintf("traffic: bad slice [%d,%d) of %d", from, to, t.Len()))
	}
	return &Trace{Pairs: t.Pairs, Snapshots: t.Snapshots[from:to:to]}
}

// Split divides the trace chronologically: the first frac (0..1) of the
// snapshots become train, the rest test — the paper's protocol ("we sorted
// the data chronologically, using the first 75% for training").
func (t *Trace) Split(frac float64) (train, test *Trace) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("traffic: split fraction %v out of [0,1]", frac))
	}
	cut := int(float64(t.Len()) * frac)
	return t.Slice(0, cut), t.Slice(cut, t.Len())
}

// Scale multiplies every demand by f in place and returns t.
func (t *Trace) Scale(f float64) *Trace {
	for _, s := range t.Snapshots {
		for i := range s {
			s[i] *= f
		}
	}
	return t
}

// Window returns the H snapshots strictly before index t as a flat vector
// (oldest first), the input layout consumed by the history-window models.
// It panics unless H <= t <= Len().
func (tr *Trace) Window(t, H int) []float64 {
	return tr.WindowInto(make([]float64, H*tr.Pairs.Count()), t, H)
}

// WindowInto is the allocation-free variant of Window: it copies the H
// snapshots strictly before index t into dst (which must have exactly
// H·Pairs.Count() entries) and returns dst. The batched training loop uses
// it to assemble minibatch input rows in place.
func (tr *Trace) WindowInto(dst []float64, t, H int) []float64 {
	if t < H || t > tr.Len() {
		panic(fmt.Sprintf("traffic: window t=%d H=%d len=%d", t, H, tr.Len()))
	}
	k := tr.Pairs.Count()
	if len(dst) != H*k {
		panic(fmt.Sprintf("traffic: window dst has %d entries, want %d", len(dst), H*k))
	}
	for i := 0; i < H; i++ {
		copy(dst[i*k:(i+1)*k], tr.Snapshots[t-H+i])
	}
	return dst
}

// PeakMatrix returns the entrywise maximum over the last H snapshots before
// index t — the "anticipated matrix composed of the peak values for each
// source-destination pair within a time window" used by the
// desensitization-based (Jupiter hedging) baseline.
func (tr *Trace) PeakMatrix(t, H int) []float64 {
	if t < 1 {
		panic("traffic: PeakMatrix needs t >= 1")
	}
	start := t - H
	if start < 0 {
		start = 0
	}
	k := tr.Pairs.Count()
	out := make([]float64, k)
	for i := start; i < t; i++ {
		for j, v := range tr.Snapshots[i] {
			if v > out[j] {
				out[j] = v
			}
		}
	}
	return out
}
