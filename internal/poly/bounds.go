package poly

import (
	"fmt"
	"math"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Affine is one loop bound in the integer form the generated C prints:
// (Coef·x + Const) / Den over a prefix of the loop variables, with Den > 0.
// A lower bound takes its ceiling, an upper bound its floor. Bounds for
// loop level k only reference x_0 … x_{k-1}.
type Affine struct {
	Coef  []int64
	Const int64
	Den   int64
}

// affineOf brings the rational bound coef·x + cst into integer form: every
// term is scaled by the lcm of the denominators, which becomes Den. No prime
// divides Den and every scaled numerator, so the form is already reduced.
func affineOf(coef ilin.RatVec, cst rat.Rat) Affine {
	l := cst.Den
	for _, c := range coef {
		l = rat.Lcm64(l, c.Den)
	}
	a := Affine{Coef: make([]int64, len(coef)), Const: rat.CheckedMul(cst.Num, l/cst.Den), Den: l}
	for i, c := range coef {
		a.Coef[i] = rat.CheckedMul(c.Num, l/c.Den)
	}
	return a
}

// Num returns the numerator Coef·x + Const at the integer prefix x (only
// the first len(Coef) entries are read), in overflow-checked int64
// arithmetic: a sum past int64 panics with a rat.Overflow instead of
// wrapping into a wrong bound.
func (a *Affine) Num(x []int64) int64 {
	s := a.Const
	for i, c := range a.Coef {
		if c != 0 {
			s = rat.CheckedAdd(s, rat.CheckedMul(c, x[i]))
		}
	}
	return s
}

func (a Affine) String() string {
	var b strings.Builder
	for i, c := range a.Coef {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d·x%d", c, i)
	}
	if b.Len() == 0 || a.Const != 0 {
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d", a.Const)
	}
	if a.Den > 1 {
		return fmt.Sprintf("(%s)/%d", b.String(), a.Den)
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
	for i := range vb.Lower {
		a := &vb.Lower[i]
		v := a.Num(x)
		if a.Den != 1 {
			v = rat.CeilDiv(v, a.Den)
		}
		best = max(best, v)
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
	for i := range vb.Upper {
		a := &vb.Upper[i]
		v := a.Num(x)
		if a.Den != 1 {
			v = rat.FloorDiv(v, a.Den)
		}
		best = min(best, v)
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
				vb.Upper = append(vb.Upper, affineOf(coef[:k], c.Rhs.Div(a)))
			case -1:
				// -|a|·x_k ≤ rhs - rest → x_k ≥ (rest - rhs)/|a|
				na := a.Neg()
				coef := c.Coef.Scale(na.Inv())
				coef[k] = rat.Zero
				vb.Lower = append(vb.Lower, affineOf(coef[:k], c.Rhs.Div(na).Neg()))
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
				vb.Upper = append(vb.Upper, affineOf(nil, c.Rhs.Div(a)))
			case -1:
				vb.Lower = append(vb.Lower, affineOf(nil, c.Rhs.Div(a.Neg()).Neg()))
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
