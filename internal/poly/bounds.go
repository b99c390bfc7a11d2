package poly

import (
	"fmt"
	"math"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Affine is an affine expression Coef·x + Const over a prefix of the loop
// variables. Bounds for loop level k only reference x_0 … x_{k-1}.
type Affine struct {
	Coef  ilin.RatVec
	Const rat.Rat
}

// Eval returns the rational value of the expression at the integer prefix
// x (only the first len(Coef) entries are read; trailing zero coefficients
// are skipped).
func (a Affine) Eval(x []int64) rat.Rat {
	s := a.Const
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		s = s.Add(c.MulInt(x[i]))
	}
	return s
}

func (a Affine) String() string {
	var b strings.Builder
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%v·x%d", c, i)
	}
	if b.Len() == 0 || !a.Const.IsZero() {
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(a.Const.String())
	}
	return b.String()
}

// VarBounds holds the affine lower and upper bounds of one loop variable:
//
//	x_k ≥ ⌈L(x)⌉ for every L in Lower   (effective bound: max)
//	x_k ≤ ⌊U(x)⌋ for every U in Upper   (effective bound: min)
type VarBounds struct {
	Lower []Affine
	Upper []Affine
}

// EvalLower returns max_k ⌈L_k(x)⌉; ok is false when there is no lower
// bound (the variable is unbounded below in the polyhedron).
func (vb VarBounds) EvalLower(x []int64) (int64, bool) {
	if len(vb.Lower) == 0 {
		return 0, false
	}
	best := int64(math.MinInt64)
	for _, a := range vb.Lower {
		if v := a.Eval(x).Ceil(); v > best {
			best = v
		}
	}
	return best, true
}

// EvalUpper returns min_k ⌊U_k(x)⌋; ok is false when there is no upper
// bound.
func (vb VarBounds) EvalUpper(x []int64) (int64, bool) {
	if len(vb.Upper) == 0 {
		return 0, false
	}
	best := int64(math.MaxInt64)
	for _, a := range vb.Upper {
		if v := a.Eval(x).Floor(); v < best {
			best = v
		}
	}
	return best, true
}

// NestBounds is the complete loop nest: Vars[k] bounds variable k in terms
// of variables 0 … k-1.
type NestBounds struct {
	N    int
	Vars []VarBounds
}

// LoopBounds runs Fourier–Motzkin elimination innermost-first over the
// system and returns per-level affine bounds. An error is reported when the
// rational polyhedron is detected to be empty or some variable is unbounded
// (iteration spaces must be bounded for tiling), or when an elimination
// step would exceed maxElimPairs.
func LoopBounds(s *System) (*NestBounds, error) {
	cur := s.Clone()
	if !cur.simplify() {
		return nil, fmt.Errorf("poly: empty system")
	}
	nb := &NestBounds{N: s.NVars, Vars: make([]VarBounds, s.NVars)}
	for k := s.NVars - 1; k >= 0; k-- {
		vb := VarBounds{}
		for _, c := range cur.Cons {
			a := c.Coef[k]
			switch a.Sign() {
			case 1:
				// a·x_k ≤ rhs - rest → x_k ≤ (rhs - rest)/a
				coef := c.Coef.Scale(a.Inv().Neg())
				coef[k] = rat.Zero
				vb.Upper = append(vb.Upper, Affine{Coef: coef[:k].Clone(), Const: c.Rhs.Div(a)})
			case -1:
				// -|a|·x_k ≤ rhs - rest → x_k ≥ (rest - rhs)/|a|
				na := a.Neg()
				coef := c.Coef.Scale(na.Inv())
				coef[k] = rat.Zero
				vb.Lower = append(vb.Lower, Affine{Coef: coef[:k].Clone(), Const: c.Rhs.Div(na).Neg()})
			}
		}
		if len(vb.Lower) == 0 || len(vb.Upper) == 0 {
			return nil, fmt.Errorf("poly: variable x%d is unbounded", k)
		}
		nb.Vars[k] = vb
		if err := cur.checkElim(k); err != nil {
			return nil, err
		}
		next, ok := cur.Eliminate(k)
		if !ok {
			return nil, fmt.Errorf("poly: empty system (detected eliminating x%d)", k)
		}
		cur = next
	}
	return nb, nil
}

// Scan enumerates every integer point of the nest in lexicographic order,
// invoking fn with a reusable buffer (fn must copy the point if it retains
// it). fn returning false stops the scan early. Scan returns the number of
// points visited. It is ScanRows with every row walked point by point.
//
// Because each level's bounds come from a system that still contains all
// original constraints on that variable, every visited point satisfies the
// original system exactly; no post-filtering is needed.
func (nb *NestBounds) Scan(fn func(x ilin.Vec) bool) int64 {
	var count int64
	nb.ScanRows(func(x ilin.Vec, n int64) bool {
		for i := int64(0); i < n; i++ {
			count++
			if !fn(x) {
				return false
			}
			x[nb.N-1]++
		}
		return true
	})
	return count
}

// ScanRows enumerates the nest a row at a time: one call per non-empty
// innermost segment, in lexicographic order, with the segment's first point
// (a reusable buffer) and its length — the points x, x+e, …, x+(n−1)·e along
// the innermost dimension e. Expanding the rows in order reproduces Scan. fn
// returning false stops the scan; ScanRows returns the number of points
// covered.
func (nb *NestBounds) ScanRows(fn func(x ilin.Vec, n int64) bool) int64 {
	x := make(ilin.Vec, nb.N)
	var count int64
	var rec func(k int) bool
	rec = func(k int) bool {
		lo, okL := nb.Vars[k].EvalLower(x[:k])
		hi, okU := nb.Vars[k].EvalUpper(x[:k])
		if !okL || !okU {
			panic("poly: unbounded variable in ScanRows")
		}
		if k == nb.N-1 {
			if hi < lo {
				return true
			}
			x[k] = lo
			count += hi - lo + 1
			return fn(x, hi-lo+1)
		}
		for v := lo; v <= hi; v++ {
			x[k] = v
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	if nb.N > 0 {
		rec(0)
	}
	return count
}

// Count returns the number of integer points in the nest.
func (nb *NestBounds) Count() int64 {
	return nb.ScanRows(func(ilin.Vec, int64) bool { return true })
}

func (nb *NestBounds) String() string {
	var b strings.Builder
	for k, vb := range nb.Vars {
		fmt.Fprintf(&b, "x%d:", k)
		for _, l := range vb.Lower {
			fmt.Fprintf(&b, "  ≥ ⌈%v⌉", l)
		}
		for _, u := range vb.Upper {
			fmt.Fprintf(&b, "  ≤ ⌊%v⌋", u)
		}
		if k < nb.N-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// BoundingBox returns per-variable integer bounds [lo_k, hi_k] of the
// rational polyhedron, by eliminating all other variables for each k. The
// box is the tightest rational shadow, rounded inward to integers.
// Like LoopBounds it errors instead of taking an elimination step larger
// than maxElimPairs.
func BoundingBox(s *System) (lo, hi ilin.Vec, err error) {
	lo = make(ilin.Vec, s.NVars)
	hi = make(ilin.Vec, s.NVars)
	for k := 0; k < s.NVars; k++ {
		cur := s.Clone()
		if !cur.simplify() {
			return nil, nil, fmt.Errorf("poly: empty system")
		}
		for j := s.NVars - 1; j >= 0; j-- {
			if j == k {
				continue
			}
			if err := cur.checkElim(j); err != nil {
				return nil, nil, err
			}
			next, ok := cur.Eliminate(j)
			if !ok {
				return nil, nil, fmt.Errorf("poly: empty system (eliminating x%d)", j)
			}
			cur = next
		}
		var vb VarBounds
		for _, c := range cur.Cons {
			a := c.Coef[k]
			switch a.Sign() {
			case 1:
				vb.Upper = append(vb.Upper, Affine{Coef: nil, Const: c.Rhs.Div(a)})
			case -1:
				vb.Lower = append(vb.Lower, Affine{Coef: nil, Const: c.Rhs.Div(a.Neg()).Neg()})
			}
		}
		l, okL := vb.EvalLower(nil)
		h, okU := vb.EvalUpper(nil)
		if !okL || !okU {
			return nil, nil, fmt.Errorf("poly: variable x%d is unbounded", k)
		}
		lo[k], hi[k] = l, h
	}
	return lo, hi, nil
}
