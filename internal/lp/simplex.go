// Package lp is a dense two-phase simplex linear-programming solver plus
// builders for the TE linear programs of the paper (MLU minimization,
// Appendix B; desensitization and fine-grained path-sensitivity caps,
// Appendix C; fault-aware variants). It substitutes for Gurobi in the
// original artifact.
//
// The solver targets the small and medium problem instances used for exact
// baselines and cross-checks; large (ToR-scale) instances should use the
// projected-gradient solver in internal/solver, mirroring the paper's own
// observation that LP does not scale to such topologies.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

const (
	// LE means a·x <= b.
	LE Sense = iota
	// GE means a·x >= b.
	GE
	// EQ means a·x == b.
	EQ
)

// Problem is a linear program in the form
//
//	minimize  c·x
//	subject to A[i]·x (S[i]) B[i]   for every row i
//	           x >= 0
type Problem struct {
	C []float64
	A [][]float64
	B []float64
	S []Sense
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("lp: no variables")
	}
	if len(p.A) != len(p.B) || len(p.A) != len(p.S) {
		return fmt.Errorf("lp: %d rows, %d rhs, %d senses", len(p.A), len(p.B), len(p.S))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	return nil
}

const eps = 1e-9

// Solve runs two-phase simplex and returns the optimal x and objective.
// It returns ErrInfeasible or ErrUnbounded for such problems.
func Solve(p *Problem) ([]float64, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(p.C)
	m := len(p.A)

	// Normalize to b >= 0 and count slack/artificial variables.
	type rowInfo struct {
		sense Sense
		flip  bool
	}
	rows := make([]rowInfo, m)
	nSlack := 0
	for i := range p.A {
		s := p.S[i]
		flip := p.B[i] < 0
		if flip {
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		rows[i] = rowInfo{sense: s, flip: flip}
		if s != EQ {
			nSlack++
		}
	}
	// Columns: n structural + nSlack slacks + m artificials (one per row that
	// needs it: GE and EQ always; LE rows use their slack as the basis).
	nArt := 0
	for _, r := range rows {
		if r.sense != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	// Tableau: m rows × (total + 1); last column is rhs.
	t := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := n + nSlack
	for i := range p.A {
		row := make([]float64, total+1)
		sign := 1.0
		if rows[i].flip {
			sign = -1
		}
		for j, v := range p.A[i] {
			row[j] = sign * v
		}
		row[total] = sign * p.B[i]
		switch rows[i].sense {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		}
		t[i] = row
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		obj := make([]float64, total+1)
		for j := n + nSlack; j < total; j++ {
			obj[j] = 1
		}
		// Price out the artificial basis.
		reduce(obj, t, basis)
		if err := iterate(t, obj, basis, total); err != nil {
			return nil, 0, err
		}
		// After reduce, obj's rhs holds -(phase-1 objective value); a
		// strictly positive optimum means no feasible point exists.
		if -obj[total] > eps {
			return nil, 0, ErrInfeasible
		}
		// Drive any remaining artificial variables out of the basis.
		for i, b := range basis {
			if b < n+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; harmless.
				basis[i] = -1
			}
		}
	}

	// Phase 2: original objective (artificial columns frozen at zero).
	obj := make([]float64, total+1)
	copy(obj, p.C)
	reduce(obj, t, basis)
	if err := iterate(t, obj, basis, n+nSlack); err != nil {
		return nil, 0, err
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b >= 0 && b < n {
			x[b] = t[i][total]
		}
	}
	return x, dotVec(p.C, x), nil
}

// reduce prices out basic variables from obj.
func reduce(obj []float64, t [][]float64, basis []int) {
	for i, b := range basis {
		if b < 0 {
			continue
		}
		if c := obj[b]; c != 0 {
			for j := range obj {
				obj[j] -= c * t[i][j]
			}
		}
	}
}

// iterate runs simplex with Dantzig pricing and a Bland fallback to
// guarantee termination, considering only the first nCols columns as
// entering candidates.
func iterate(t [][]float64, obj []float64, basis []int, nCols int) error {
	total := len(obj) - 1
	degenerate := 0
	for iter := 0; ; iter++ {
		// Entering column.
		enter := -1
		if degenerate < 20 {
			best := -eps
			for j := 0; j < nCols; j++ {
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		} else {
			// Bland's rule under degeneracy.
			for j := 0; j < nCols; j++ {
				if obj[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return nil // optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := range t {
			a := t[i][enter]
			if a > eps {
				r := t[i][total] / a
				if r < bestRatio-eps || (r < bestRatio+eps && (leave == -1 || basis[i] < basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave == -1 {
			return ErrUnbounded
		}
		if bestRatio < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		pivotObj(t, obj, basis, leave, enter)
	}
}

// pivot performs a basis change on the tableau only.
func pivot(t [][]float64, basis []int, leave, enter int) {
	pivotRow := t[leave]
	pv := pivotRow[enter]
	inv := 1 / pv
	for j := range pivotRow {
		pivotRow[j] *= inv
	}
	for i := range t {
		if i == leave {
			continue
		}
		f := t[i][enter]
		if f == 0 {
			continue
		}
		row := t[i]
		for j := range row {
			row[j] -= f * pivotRow[j]
		}
	}
	basis[leave] = enter
}

// pivotObj pivots tableau and objective row together.
func pivotObj(t [][]float64, obj []float64, basis []int, leave, enter int) {
	pivot(t, basis, leave, enter)
	f := obj[enter]
	if f != 0 {
		pr := t[leave]
		for j := range obj {
			obj[j] -= f * pr[j]
		}
	}
}

func dotVec(a, b []float64) float64 {
	s := 0.0
	for i := range b {
		s += a[i] * b[i]
	}
	return s
}
