// Package poly represents convex polyhedra {x ∈ Qⁿ : A·x ≤ b} and computes
// nested-loop bounds for their integer points via Fourier–Motzkin
// elimination.
//
// This is the machinery behind both levels of the paper's generated code:
// the n outer loops that enumerate tiles (bounds of the tile space J^S) and
// the n inner loops that sweep a tile's points, including the boundary-tile
// clamping "using inequalities describing the original iteration space"
// (§2.3). Eliminating variables innermost-first yields, for every loop
// level k, a set of affine lower/upper bounds in the outer variables; a
// scan that takes max-of-ceilings and min-of-floors enumerates exactly the
// integer points of the polyhedron.
//
// The elimination runs in exact rationals, at compile time only. Each bound
// it yields is stored once as the integer expression (Σ a_i·x_i + c)/L that
// the generated C prints under ceild/floord (Affine), and every scan — here
// and in internal/tiling — evaluates that form in overflow-checked int64
// arithmetic, so the Go loops and the C loops are the same loops.
package poly

import (
	"fmt"
	"sort"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Constraint is a single linear inequality Coef·x ≤ Rhs.
type Constraint struct {
	Coef ilin.RatVec
	Rhs  rat.Rat
}

// NewConstraint builds Coef·x ≤ Rhs, copying the coefficient vector.
func NewConstraint(coef ilin.RatVec, rhs rat.Rat) Constraint {
	return Constraint{Coef: coef.Clone(), Rhs: rhs}
}

// normalize scales the constraint by a positive rational so the
// coefficients become integers with gcd 1; direction is preserved. Returns
// the canonical form used for deduplication.
func (c Constraint) normalize() Constraint {
	// lcm of denominators, then gcd of numerators.
	l := int64(1)
	for _, x := range c.Coef {
		l = rat.Lcm64(l, x.Den)
	}
	l = rat.Lcm64(l, c.Rhs.Den)
	if l == 0 {
		l = 1
	}
	g := int64(0)
	scaled := make(ilin.RatVec, len(c.Coef))
	for i, x := range c.Coef {
		scaled[i] = x.MulInt(l)
		g = rat.Gcd64(g, scaled[i].Num)
	}
	rhs := c.Rhs.MulInt(l)
	if g == 0 {
		// Trivial constraint 0 ≤ rhs; keep rhs sign only.
		switch c.Rhs.Sign() {
		case -1:
			return Constraint{Coef: scaled, Rhs: rat.FromInt(-1)}
		default:
			return Constraint{Coef: scaled, Rhs: rat.Zero}
		}
	}
	for i := range scaled {
		scaled[i] = rat.New(scaled[i].Num/g, 1)
	}
	return Constraint{Coef: scaled, Rhs: rat.New(rhs.Num, rhs.Den*g)}
}

// isTrivial reports whether the constraint has all-zero coefficients;
// feasible indicates whether it is then satisfiable.
func (c Constraint) isTrivial() (trivial, feasible bool) {
	if !c.Coef.IsZero() {
		return false, true
	}
	return true, c.Rhs.Sign() >= 0
}

// SatisfiedBy reports whether the integer point x satisfies the constraint:
// the same answer as Coef·x - Rhs ≤ 0 in rationals, computed in overflow-
// checked int64 arithmetic without allocating. The row is scaled by the lcm
// l of its denominators (1 for the integer rows loop nests produce), so
// Coef·x ≤ Rhs becomes Σ (l·Coef_i)·x_i ≤ l·Rhs over the integers.
func (c Constraint) SatisfiedBy(x ilin.Vec) bool {
	if len(c.Coef) != len(x) {
		panic(fmt.Sprintf("poly: point arity %d != constraint arity %d", len(x), len(c.Coef)))
	}
	l := c.Rhs.Den
	for _, a := range c.Coef {
		if a.Den != 1 {
			l = rat.Lcm64(l, a.Den)
		}
	}
	var sum int64
	for i, a := range c.Coef {
		n := a.Num
		if a.Den != l {
			n = rat.CheckedMul(n, l/a.Den)
		}
		sum = rat.CheckedAdd(sum, rat.CheckedMul(n, x[i]))
	}
	rhs := c.Rhs.Num
	if c.Rhs.Den != l {
		rhs = rat.CheckedMul(rhs, l/c.Rhs.Den)
	}
	return sum <= rhs
}

func (c Constraint) String() string {
	var b strings.Builder
	first := true
	for i, x := range c.Coef {
		if x.IsZero() {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%v·x%d", x, i)
		first = false
	}
	if first {
		b.WriteString("0")
	}
	fmt.Fprintf(&b, " ≤ %v", c.Rhs)
	return b.String()
}

// System is a conjunction of linear inequalities over NVars variables.
type System struct {
	NVars int
	Cons  []Constraint
}

// NewSystem returns an empty system over n variables.
func NewSystem(n int) *System { return &System{NVars: n} }

// Add appends a constraint; the coefficient length must match NVars.
func (s *System) Add(c Constraint) {
	if len(c.Coef) != s.NVars {
		panic(fmt.Sprintf("poly: constraint arity %d != system arity %d", len(c.Coef), s.NVars))
	}
	s.Cons = append(s.Cons, c)
}

// AddRange adds lo ≤ x_k ≤ hi.
func (s *System) AddRange(k int, lo, hi int64) {
	cl := make(ilin.RatVec, s.NVars)
	for i := range cl {
		cl[i] = rat.Zero
	}
	cu := cl.Clone()
	cl[k] = rat.FromInt(-1)
	cu[k] = rat.One
	s.Add(Constraint{Coef: cl, Rhs: rat.FromInt(-lo)})
	s.Add(Constraint{Coef: cu, Rhs: rat.FromInt(hi)})
}

// Clone returns a deep copy.
func (s *System) Clone() *System {
	out := NewSystem(s.NVars)
	out.Cons = make([]Constraint, len(s.Cons))
	for i, c := range s.Cons {
		out.Cons[i] = Constraint{Coef: c.Coef.Clone(), Rhs: c.Rhs}
	}
	return out
}

// Contains reports whether the integer point x satisfies every constraint.
func (s *System) Contains(x ilin.Vec) bool {
	for i := range s.Cons {
		if !s.Cons[i].SatisfiedBy(x) {
			return false
		}
	}
	return true
}

// simplify normalizes all constraints, removes duplicates, keeps only the
// tightest rhs per coefficient vector, and detects trivially infeasible
// rows. It returns false if the system is certainly infeasible.
func (s *System) simplify() bool {
	type key string
	best := map[key]Constraint{}
	order := []key{}
	for _, c := range s.Cons {
		n := c.normalize()
		if triv, feas := n.isTrivial(); triv {
			if !feas {
				return false
			}
			continue
		}
		k := key(n.Coef.String())
		if prev, ok := best[k]; ok {
			if n.Rhs.Cmp(prev.Rhs) < 0 {
				best[k] = n
			}
		} else {
			best[k] = n
			order = append(order, k)
		}
	}
	// Detect direct contradictions c·x ≤ r1 and -c·x ≤ r2 with r1+r2 < 0.
	for _, k := range order {
		c := best[k]
		nk := key(c.Coef.Scale(rat.FromInt(-1)).String())
		if opp, ok := best[nk]; ok {
			if c.Rhs.Add(opp.Rhs).Sign() < 0 {
				return false
			}
		}
	}
	s.Cons = s.Cons[:0]
	for _, k := range order {
		s.Cons = append(s.Cons, best[k])
	}
	return true
}

// Eliminate removes variable k by Fourier–Motzkin combination, returning a
// new system over the same variable indexing where x_k no longer appears.
// The projection is exact over the rationals. The boolean result is false
// if the system was detected infeasible during simplification.
func (s *System) Eliminate(k int) (*System, bool) {
	var pos, neg, zero []Constraint
	for _, c := range s.Cons {
		switch c.Coef[k].Sign() {
		case 1:
			pos = append(pos, c)
		case -1:
			neg = append(neg, c)
		default:
			zero = append(zero, c)
		}
	}
	out := NewSystem(s.NVars)
	out.Cons = append(out.Cons, zero...)
	for _, p := range pos {
		for _, n := range neg {
			// p: a·x + α·x_k ≤ r1 (α>0) → x_k ≤ (r1 - a·x)/α
			// n: b·x - β·x_k ≤ r2 (β>0) → x_k ≥ (b·x - r2)/β
			// combine: β·(a·x) + α·(b·x) ≤ β·r1 + α·r2
			alpha := p.Coef[k]
			beta := n.Coef[k].Neg()
			coef := p.Coef.Scale(beta).Add(n.Coef.Scale(alpha))
			coef[k] = rat.Zero
			rhs := p.Rhs.Mul(beta).Add(n.Rhs.Mul(alpha))
			out.Cons = append(out.Cons, Constraint{Coef: coef, Rhs: rhs})
		}
	}
	ok := out.simplify()
	return out, ok
}

// maxElimPairs bounds one Fourier–Motzkin step of LoopBounds and
// BoundingBox. A step combines every constraint with a positive x_k
// coefficient with every one with a negative coefficient, and without
// redundancy pruning the products compound: a valid 3×3 tiling of a
// 4×6×4 box (tiling's TestAnalyzeRefusesFourierMotzkinBlowUp) goes
// 320 → 2 809 → 79 576 pairs over three steps and, unchecked, exhausts
// memory within seconds, while the shipped workloads and the other test
// suites peak near 1 200. Past the bound the step is refused, so such
// input fails fast.
const maxElimPairs = 1 << 16

// checkElim refuses to eliminate x_k when the step would combine more than
// maxElimPairs constraint pairs.
func (s *System) checkElim(k int) error {
	var pos, neg int
	for _, c := range s.Cons {
		switch c.Coef[k].Sign() {
		case 1:
			pos++
		case -1:
			neg++
		}
	}
	if pos*neg > maxElimPairs {
		return fmt.Errorf("poly: eliminating x%d would combine %d×%d constraint pairs (limit %d): system too complex for Fourier–Motzkin", k, pos, neg, maxElimPairs)
	}
	return nil
}

func (s *System) String() string {
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}
