package wire

import (
	"errors"
	"fmt"
)

// Layout maps SD-pair indices to the path indices of their candidate
// paths — te.PathSet.PairPaths, passed down without importing te so the
// codec stays dependency-free. Delta encoding and application are
// defined over a layout: a "pair's ratios" are the entries of the flat
// ratio vector the layout assigns to it. Like the rest of this file it
// serves the offline delta probe; no transport sends deltas.
type Layout [][]int

// NumPaths returns the total path count across all pairs.
func (l Layout) NumPaths() int {
	n := 0
	for _, pp := range l {
		n += len(pp)
	}
	return n
}

// ErrDeltaGap reports a delta whose base does not match the decision it
// is being applied to: the holder of the base is behind (or ahead of) the
// encoder's chain, and only a full decision can re-anchor it. Gaps never
// corrupt state: ApplyDelta returns before touching out. Offline delta
// codec only, like ApplyDelta.
var ErrDeltaGap = errors.New("wire: delta base mismatch, full resync required")

// ApplyDelta reconstructs the full decision a delta describes by
// patching the changed pairs onto prev (the last full decision),
// writing the result into out (whose Ratios capacity is reused). prev
// and out may not alias. It is the offline delta codec's decode half;
// no transport calls it.
//
// It fails with ErrDeltaGap when prev is not the delta's base —
// mismatched sequence number, a version gap, or a warming/ratio-less
// base — and with a framing error when the delta is malformed against
// the layout. On any error out is left untouched.
func ApplyDelta(prev *Decision, d *Delta, layout Layout, out *Decision) error {
	if prev == nil || prev.Warming || len(prev.Ratios) == 0 {
		return fmt.Errorf("%w (no base decision)", ErrDeltaGap)
	}
	if d.BaseSeq != prev.Seq {
		return fmt.Errorf("%w (base seq %d, have %d)", ErrDeltaGap, d.BaseSeq, prev.Seq)
	}
	if d.Version != prev.Version {
		return fmt.Errorf("%w (version %d, base %d)", ErrDeltaGap, d.Version, prev.Version)
	}
	if len(prev.Ratios) != layout.NumPaths() {
		return fmt.Errorf("%w (base has %d ratios, layout %d)", ErrDeltaGap, len(prev.Ratios), layout.NumPaths())
	}
	for i := range d.Pairs {
		dp := &d.Pairs[i]
		if dp.Pair < 0 || dp.Pair >= len(layout) {
			return frameErr("delta pair %d out of range [0, %d)", dp.Pair, len(layout))
		}
		if len(dp.Ratios) != len(layout[dp.Pair]) {
			return frameErr("delta pair %d has %d ratios, layout %d", dp.Pair, len(dp.Ratios), len(layout[dp.Pair]))
		}
	}
	out.Seq = d.Seq
	out.Snapshot = d.Snapshot
	out.Version = d.Version
	out.Rerouted = d.Rerouted
	out.ChurnLimited = d.ChurnLimited
	out.Warming = false
	out.AtUnixNanos = d.AtUnixNanos
	if cap(out.Ratios) < len(prev.Ratios) {
		out.Ratios = make([]float64, len(prev.Ratios))
	}
	out.Ratios = out.Ratios[:len(prev.Ratios)]
	copy(out.Ratios, prev.Ratios)
	for i := range d.Pairs {
		dp := &d.Pairs[i]
		for j, p := range layout[dp.Pair] {
			out.Ratios[p] = dp.Ratios[j]
		}
	}
	return nil
}
