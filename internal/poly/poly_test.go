package poly

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Eval returns Coef·x - Rhs ≤ 0 residual sign: negative or zero means x
// satisfies the constraint.
func (c Constraint) Eval(x ilin.RatVec) rat.Rat {
	return c.Coef.Dot(x).Sub(c.Rhs)
}

func box2(lo1, hi1, lo2, hi2 int64) *System {
	s := NewSystem(2)
	s.AddRange(0, lo1, hi1)
	s.AddRange(1, lo2, hi2)
	return s
}

func TestContains(t *testing.T) {
	s := box2(0, 3, 1, 2)
	if !s.Contains(ilin.NewVec(0, 1)) || !s.Contains(ilin.NewVec(3, 2)) {
		t.Error("corner points should be contained")
	}
	if s.Contains(ilin.NewVec(4, 1)) || s.Contains(ilin.NewVec(0, 0)) {
		t.Error("outside points should not be contained")
	}
}

func TestGEConstraint(t *testing.T) {
	// x0 ≥ 2 over one variable.
	c := ge(ilin.RatVec{rat.One}, rat.FromInt(2))
	if !c.SatisfiedBy(ilin.NewVec(2)) || !c.SatisfiedBy(ilin.NewVec(5)) {
		t.Error("ge should hold at/above the bound")
	}
	if c.SatisfiedBy(ilin.NewVec(1)) {
		t.Error("ge should fail below the bound")
	}
}

func TestLoopBoundsBox(t *testing.T) {
	nb, err := LoopBounds(box2(0, 3, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.Count(); got != 4*2 {
		t.Errorf("Count = %d, want 8", got)
	}
	lo, _ := nb.Vars[0].EvalLower(nil)
	hi, _ := nb.Vars[0].EvalUpper(nil)
	if lo != 0 || hi != 3 {
		t.Errorf("outer bounds = [%d, %d]", lo, hi)
	}
}

// Triangle {x ≥ 0, y ≥ 0, x + y ≤ 3} has 10 integer points.
func TestLoopBoundsTriangle(t *testing.T) {
	s := NewSystem(2)
	s.Add(ge(ilin.RatVec{rat.One, rat.Zero}, rat.Zero))
	s.Add(ge(ilin.RatVec{rat.Zero, rat.One}, rat.Zero))
	s.Add(NewConstraint(ilin.RatVec{rat.One, rat.One}, rat.FromInt(3)))
	nb, err := LoopBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.Count(); got != 10 {
		t.Errorf("Count = %d, want 10", got)
	}
	// Inner bound must depend on the outer variable: y ≤ 3 - x.
	hi, _ := nb.Vars[1].EvalUpper([]int64{2})
	if hi != 1 {
		t.Errorf("y upper at x=2 is %d, want 1", hi)
	}
}

// Skewed parallelogram {0 ≤ x ≤ 4, x ≤ y ≤ x + 2}: 5 columns of 3.
func TestLoopBoundsSkewed(t *testing.T) {
	s := NewSystem(2)
	s.AddRange(0, 0, 4)
	s.Add(ge(ilin.RatVec{rat.FromInt(-1), rat.One}, rat.Zero)) // y - x ≥ 0
	s.Add(NewConstraint(ilin.RatVec{rat.FromInt(-1), rat.One}, rat.FromInt(2)))
	nb, err := LoopBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.Count(); got != 15 {
		t.Errorf("Count = %d, want 15", got)
	}
	lo, _ := nb.Vars[1].EvalLower([]int64{3})
	hi, _ := nb.Vars[1].EvalUpper([]int64{3})
	if lo != 3 || hi != 5 {
		t.Errorf("inner bounds at x=3 = [%d, %d], want [3, 5]", lo, hi)
	}
}

// Rational-coefficient bounds: {0 ≤ x ≤ 5, x/2 ≤ y ≤ x/2 + 1/2} exercises
// ceilings and floors of non-integer affine bounds.
func TestLoopBoundsRationalCoefficients(t *testing.T) {
	s := NewSystem(2)
	s.AddRange(0, 0, 5)
	half := rat.New(1, 2)
	s.Add(ge(ilin.RatVec{half.Neg(), rat.One}, rat.Zero))        // y ≥ x/2
	s.Add(NewConstraint(ilin.RatVec{half.Neg(), rat.One}, half)) // y ≤ x/2 + 1/2
	nb, err := LoopBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	// x even → single y = x/2; x odd → y ∈ {⌈x/2⌉} = {(x+1)/2} (one point).
	if got := nb.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
}

func TestEmptySystems(t *testing.T) {
	s := NewSystem(1)
	s.AddRange(0, 3, 1) // 3 ≤ x ≤ 1: empty
	if _, err := LoopBounds(s); err == nil {
		t.Error("LoopBounds should fail on empty system")
	}
}

func TestUnboundedDetected(t *testing.T) {
	s := NewSystem(1)
	s.Add(ge(ilin.RatVec{rat.One}, rat.Zero)) // x ≥ 0 only
	if _, err := LoopBounds(s); err == nil {
		t.Error("LoopBounds should fail for unbounded variable")
	}
}

func TestEliminateProjection(t *testing.T) {
	// Project the triangle x+y ≤ 3, x,y ≥ 0 onto x: expect 0 ≤ x ≤ 3.
	s := NewSystem(2)
	s.Add(ge(ilin.RatVec{rat.One, rat.Zero}, rat.Zero))
	s.Add(ge(ilin.RatVec{rat.Zero, rat.One}, rat.Zero))
	s.Add(NewConstraint(ilin.RatVec{rat.One, rat.One}, rat.FromInt(3)))
	proj, ok := s.Eliminate(1)
	if !ok {
		t.Fatal("projection infeasible")
	}
	if !proj.Contains(ilin.NewVec(0, 99)) || !proj.Contains(ilin.NewVec(3, -50)) {
		t.Error("projection should admit 0 ≤ x ≤ 3 regardless of y")
	}
	if proj.Contains(ilin.NewVec(4, 0)) || proj.Contains(ilin.NewVec(-1, 0)) {
		t.Error("projection should reject x outside [0,3]")
	}
}

func TestSimplifyKeepsTightest(t *testing.T) {
	s := NewSystem(1)
	s.Add(NewConstraint(ilin.RatVec{rat.One}, rat.FromInt(10)))
	s.Add(NewConstraint(ilin.RatVec{rat.FromInt(2)}, rat.FromInt(8))) // x ≤ 4, tighter
	s.Add(ge(ilin.RatVec{rat.One}, rat.Zero))
	nb, err := LoopBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := nb.Vars[0].EvalUpper(nil)
	if hi != 4 {
		t.Errorf("upper = %d, want 4", hi)
	}
}

func TestAffineEvalString(t *testing.T) {
	// x0/2 + 3/2 over (x0, x1) in integer form: (x0 + 3)/2.
	a := affineOf(ilin.RatVec{rat.New(1, 2), rat.Zero}, rat.New(3, 2))
	if a.Den != 2 || a.Const != 3 || a.Coef[0] != 1 || a.Coef[1] != 0 {
		t.Fatalf("integer form = %+v, want (x0 + 3)/2", a)
	}
	if got := a.Num([]int64{4, 7}); got != 7 {
		t.Errorf("Num = %d, want 7", got)
	}
	vb := VarBounds{Lower: []Affine{a}, Upper: []Affine{a}}
	if lo, _ := vb.EvalLower([]int64{4, 7}); lo != 4 {
		t.Errorf("⌈7/2⌉ = %d", lo)
	}
	if hi, _ := vb.EvalUpper([]int64{4, 7}); hi != 3 {
		t.Errorf("⌊7/2⌋ = %d", hi)
	}
	if a.String() != "(1·x0 + 3)/2" || (Affine{Den: 1}).String() != "0" {
		t.Errorf("String rendering: %q", a.String())
	}
}

// Property: Scan visits exactly the integer points x of the box that
// satisfy a random extra half-space, matching brute force.
func TestQuickScanMatchesBruteForce(t *testing.T) {
	f := func(a1, a2 int8, rhs int8) bool {
		s := box2(-3, 3, -3, 3)
		coef := ilin.RatVec{rat.FromInt(int64(a1 % 4)), rat.FromInt(int64(a2 % 4))}
		s.Add(NewConstraint(coef, rat.FromInt(int64(rhs%8))))

		want := map[[2]int64]bool{}
		for x := int64(-3); x <= 3; x++ {
			for y := int64(-3); y <= 3; y++ {
				if s.Contains(ilin.NewVec(x, y)) {
					want[[2]int64{x, y}] = true
				}
			}
		}
		nb, err := LoopBounds(s)
		if err != nil {
			return len(want) == 0
		}
		got := map[[2]int64]bool{}
		nb.Scan(func(p ilin.Vec) bool {
			got[[2]int64{p[0], p[1]}] = true
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: projection soundness — if (x, y) is in the system, x is in the
// eliminated system.
func TestQuickEliminateSound(t *testing.T) {
	f := func(a1, a2, rhs, px, py int8) bool {
		s := box2(-4, 4, -4, 4)
		coef := ilin.RatVec{rat.FromInt(int64(a1 % 3)), rat.FromInt(int64(a2 % 3))}
		s.Add(NewConstraint(coef, rat.FromInt(int64(rhs%6))))
		p := ilin.NewVec(int64(px%5), int64(py%5))
		if !s.Contains(p) {
			return true
		}
		proj, ok := s.Eliminate(1)
		if !ok {
			return false
		}
		return proj.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	nb, err := LoopBounds(box2(0, 9, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	nb.Scan(func(ilin.Vec) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Errorf("early stop visited %d points", seen)
	}
}

// TestScanRowsExpandsToScan: on a box, a triangle and a skewed space, the
// rows (first point, length) expanded along the innermost dimension are
// exactly Scan's points in Scan's order, and an early stop is honoured.
func TestScanRowsExpandsToScan(t *testing.T) {
	tri := NewSystem(2)
	tri.AddRange(0, 0, 6)
	tri.Add(Constraint{Coef: ilin.RatVec{rat.FromInt(1), rat.FromInt(-1)}, Rhs: rat.Zero})       // x0 ≤ x1
	tri.Add(Constraint{Coef: ilin.RatVec{rat.FromInt(-2), rat.FromInt(1)}, Rhs: rat.FromInt(1)}) // x1 ≤ 2·x0+1
	box3 := NewSystem(3)
	box3.AddRange(0, -1, 2)
	box3.AddRange(1, 0, 3)
	box3.AddRange(2, 5, 9)
	for name, sys := range map[string]*System{"box": box2(0, 9, -3, 4), "triangle": tri, "box3": box3} {
		nb, err := LoopBounds(sys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want, got []ilin.Vec
		nb.Scan(func(x ilin.Vec) bool {
			want = append(want, x.Clone())
			return true
		})
		total := nb.ScanRows(func(x ilin.Vec, n int64) bool {
			if n < 1 {
				t.Fatalf("%s: empty row at %v", name, x)
			}
			for i := int64(0); i < n; i++ {
				p := x.Clone()
				p[len(p)-1] += i
				got = append(got, p)
			}
			return true
		})
		if total != int64(len(want)) || len(got) != len(want) {
			t.Fatalf("%s: rows cover %d points (returned %d), Scan %d", name, len(got), total, len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: point %d: rows give %v, Scan %v", name, i, got[i], want[i])
			}
		}
		rows := 0
		nb.ScanRows(func(ilin.Vec, int64) bool {
			rows++
			return rows < 2
		})
		if rows != 2 {
			t.Fatalf("%s: early stop visited %d rows", name, rows)
		}
	}
}

func TestSystemString(t *testing.T) {
	s := box2(0, 1, 0, 1)
	if s.String() == "" {
		t.Error("empty String")
	}
	if (&Constraint{Coef: ilin.RatVec{rat.Zero}, Rhs: rat.Zero}).String() != "0 ≤ 0" {
		t.Error("trivial constraint String")
	}
}

func TestBoundingBox(t *testing.T) {
	// Triangle x,y ≥ 0, x + y ≤ 5: box [0,5]×[0,5].
	s := NewSystem(2)
	s.Add(ge(ilin.RatVec{rat.One, rat.Zero}, rat.Zero))
	s.Add(ge(ilin.RatVec{rat.Zero, rat.One}, rat.Zero))
	s.Add(NewConstraint(ilin.RatVec{rat.One, rat.One}, rat.FromInt(5)))
	lo, hi, err := BoundingBox(s)
	if err != nil {
		t.Fatal(err)
	}
	if !lo.Equal(ilin.NewVec(0, 0)) || !hi.Equal(ilin.NewVec(5, 5)) {
		t.Errorf("box = %v .. %v", lo, hi)
	}
	// Empty system.
	e := NewSystem(1)
	e.AddRange(0, 3, 1)
	if _, _, err := BoundingBox(e); err == nil {
		t.Error("empty system box should fail")
	}
	// Unbounded system.
	u := NewSystem(1)
	u.Add(ge(ilin.RatVec{rat.One}, rat.Zero))
	if _, _, err := BoundingBox(u); err == nil {
		t.Error("unbounded box should fail")
	}
	// Contradiction found only after eliminating the other variable:
	// x ≥ 0, x ≤ 3, y - x ≥ 10, y + x ≤ 2.
	c := NewSystem(2)
	c.AddRange(0, 0, 3)
	c.Add(ge(ilin.RatVec{rat.FromInt(-1), rat.One}, rat.FromInt(10)))
	c.Add(NewConstraint(ilin.RatVec{rat.One, rat.One}, rat.FromInt(2)))
	if _, _, err := BoundingBox(c); err == nil {
		t.Error("inconsistent system box should fail")
	}
}

func TestNestBoundsString(t *testing.T) {
	nb, err := LoopBounds(box2(0, 2, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s := nb.String(); s == "" || !strings.Contains(s, "x0") {
		t.Errorf("NestBounds String = %q", s)
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	s := NewSystem(2)
	s.Add(NewConstraint(ilin.RatVec{rat.One}, rat.Zero))
}

// TestEliminationBound: an elimination step that would combine more than
// maxElimPairs constraint pairs is refused by both projections instead of
// being taken (unchecked Fourier–Motzkin growth is how one small tiling
// used to exhaust memory).
func TestEliminationBound(t *testing.T) {
	// fan(n) bounds x1 by n distinct upper and n distinct lower constraints:
	// eliminating x1 combines n² pairs.
	fan := func(n int64) *System {
		s := NewSystem(2)
		s.AddRange(0, 0, 10)
		for i := int64(1); i <= n; i++ {
			coef := ilin.RatVec{rat.FromInt(i), rat.One}
			s.Add(NewConstraint(coef, rat.FromInt(1000*i)))
			s.Add(ge(coef, rat.FromInt(-1000*i)))
		}
		return s
	}
	over := fan(300) // 90 000 pairs
	if _, err := LoopBounds(over); err == nil || !strings.Contains(err.Error(), "too complex") {
		t.Errorf("LoopBounds: err = %v, want the elimination bound", err)
	}
	if _, _, err := BoundingBox(over); err == nil || !strings.Contains(err.Error(), "too complex") {
		t.Errorf("BoundingBox: err = %v, want the elimination bound", err)
	}
	if _, _, err := BoundingBox(fan(200)); err != nil { // 40 000 pairs: taken
		t.Errorf("BoundingBox under the bound: %v", err)
	}
}

// skewedSpace is the skewed Jacobi iteration space shape: a box's six faces
// under a unimodular skew, all-integer rows — what the executor's
// containment tests actually see.
func skewedSpace() *System {
	s := NewSystem(3)
	rows := [][4]int64{
		{-1, 0, 0, -1}, {1, 0, 0, 8},
		{1, -1, 0, -1}, {-1, 1, 0, 192},
		{1, 0, -1, -1}, {-1, 0, 1, 192},
	}
	for _, r := range rows {
		s.Add(Constraint{Coef: ilin.NewVec(r[0], r[1], r[2]).Rat(), Rhs: rat.FromInt(r[3])})
	}
	return s
}

// TestSatisfiedByMatchesRationalEval: the integer containment test must
// answer exactly what the exact-rational residual sign answers, on random
// constraints with rational coefficients and right-hand sides
// (denominators ≠ 1, negative rhs and all-zero rows included).
func TestSatisfiedByMatchesRationalEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20021))
	randRat := func() rat.Rat {
		switch rng.Intn(4) {
		case 0:
			return rat.Zero
		case 1:
			return rat.FromInt(rng.Int63n(41) - 20)
		default:
			return rat.New(rng.Int63n(201)-100, rng.Int63n(12)+1)
		}
	}
	var sat, unsat, fractional, zeroRows int
	for iter := 0; iter < 20000; iter++ {
		n := rng.Intn(4) + 1
		c := Constraint{Coef: make(ilin.RatVec, n), Rhs: randRat()}
		allZero := true
		if rng.Intn(20) > 0 { // one row in twenty stays all-zero
			for i := range c.Coef {
				c.Coef[i] = randRat()
				allZero = allZero && c.Coef[i].IsZero()
			}
		} else {
			for i := range c.Coef {
				c.Coef[i] = rat.Zero
			}
		}
		if allZero {
			zeroRows++
		}
		if !c.Rhs.IsInt() {
			fractional++
		}
		x := make(ilin.Vec, n)
		for i := range x {
			x[i] = rng.Int63n(2001) - 1000
		}
		want := c.Eval(x.Rat()).Sign() <= 0
		if got := c.SatisfiedBy(x); got != want {
			t.Fatalf("%v at %v: SatisfiedBy = %v, rational residual says %v", c, x, got, want)
		}
		if want {
			sat++
		} else {
			unsat++
		}
	}
	if sat < 1000 || unsat < 1000 || fractional < 1000 || zeroRows < 100 {
		t.Fatalf("generator too narrow: %d satisfied, %d violated, %d fractional rhs, %d zero rows", sat, unsat, fractional, zeroRows)
	}
}

func TestContainsZeroAlloc(t *testing.T) {
	s := skewedSpace()
	s.Add(Constraint{Coef: ilin.RatVec{rat.New(1, 2), rat.New(-2, 3), rat.Zero}, Rhs: rat.New(700, 3)})
	in, out := ilin.NewVec(4, 100, 100), ilin.NewVec(4, 3, 100)
	if !s.Contains(in) || s.Contains(out) {
		t.Fatal("fixture points misclassified")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Contains(in)
		s.Contains(out)
	}); allocs != 0 {
		t.Fatalf("Contains allocates %.1f times per call pair, want 0", allocs)
	}
}

// TestSatisfiedByOverflowPanics: a product past int64 must fail as loudly as
// the rational arithmetic did, never wrap into a wrong answer.
func TestSatisfiedByOverflowPanics(t *testing.T) {
	cases := map[string]struct {
		c Constraint
		x ilin.Vec
	}{
		"product":  {Constraint{Coef: ilin.RatVec{rat.FromInt(1 << 40)}, Rhs: rat.Zero}, ilin.NewVec(1 << 40)},
		"sum":      {Constraint{Coef: ilin.RatVec{rat.FromInt(1 << 31), rat.FromInt(1 << 31)}, Rhs: rat.Zero}, ilin.NewVec(1<<31, 1<<31)},
		"scaling":  {Constraint{Coef: ilin.RatVec{rat.New(1<<62, 3), rat.New(1, 5)}, Rhs: rat.Zero}, ilin.NewVec(1, 1)},
		"rhs-side": {Constraint{Coef: ilin.RatVec{rat.New(1, 7)}, Rhs: rat.FromInt(1 << 62)}, ilin.NewVec(1)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if _, ok := r.(rat.Overflow); !ok {
					t.Fatalf("recovered %v, want a rat.Overflow panic", r)
				}
			}()
			t.Fatalf("SatisfiedBy returned %v instead of panicking", tc.c.SatisfiedBy(tc.x))
		})
	}
}

var benchContains bool

// BenchmarkContains times the integer containment test on the skewed-box
// space, alternating an interior point (all six rows evaluated) and a point
// the third row rejects; CI greps its allocs/op.
func BenchmarkContains(b *testing.B) {
	s := skewedSpace()
	pts := []ilin.Vec{ilin.NewVec(4, 100, 100), ilin.NewVec(4, 3, 100)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchContains = s.Contains(pts[i&1])
	}
}

// TestBoundFormMatchesRationalEval: the integer bound form must answer
// exactly what the rational expression it was built from answers — ⌈Σ⌉ for
// a lower bound, ⌊Σ⌋ for an upper bound, and the max/min over several —
// on random rational affines (denominators ≠ 1, zero terms and constant-only
// rows included) at random integer points. The rational side is computed
// here, with rat, as the oracle.
func TestBoundFormMatchesRationalEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20032))
	randRat := func() rat.Rat {
		switch rng.Intn(4) {
		case 0:
			return rat.Zero
		case 1:
			return rat.FromInt(rng.Int63n(41) - 20)
		default:
			return rat.New(rng.Int63n(201)-100, rng.Int63n(12)+1)
		}
	}
	type row struct {
		coef ilin.RatVec
		cst  rat.Rat
	}
	value := func(r row, x []int64) rat.Rat { // Σ coef_i·x_i + cst, exactly
		s := r.cst
		for i, c := range r.coef {
			s = s.Add(c.MulInt(x[i]))
		}
		return s
	}
	var fractional, ties int
	for iter := 0; iter < 20000; iter++ {
		n := rng.Intn(4)
		x := make([]int64, n)
		for i := range x {
			x[i] = rng.Int63n(2001) - 1000
		}
		rows := make([]row, rng.Intn(3)+1)
		var vb VarBounds
		wantLo, wantHi := int64(math.MinInt64), int64(math.MaxInt64)
		for k := range rows {
			r := row{coef: make(ilin.RatVec, n), cst: randRat()}
			for i := range r.coef {
				r.coef[i] = randRat()
			}
			a := affineOf(r.coef, r.cst)
			if a.Den < 1 {
				t.Fatalf("%v: integer form has Den %d", r, a.Den)
			}
			v := value(r, x)
			if !v.IsInt() {
				fractional++
			} else if k > 0 {
				ties++
			}
			wantLo, wantHi = max(wantLo, rat.CeilDiv(v.Num, v.Den)), min(wantHi, rat.FloorDiv(v.Num, v.Den))
			vb.Lower = append(vb.Lower, a)
			vb.Upper = append(vb.Upper, a)
		}
		lo, okL := vb.EvalLower(x)
		hi, okU := vb.EvalUpper(x)
		if !okL || !okU || lo != wantLo || hi != wantHi {
			t.Fatalf("bounds %v at %v: integer form gives [%d, %d], rational [%d, %d]", vb.Lower, x, lo, hi, wantLo, wantHi)
		}
	}
	if fractional < 5000 || ties < 100 {
		t.Fatalf("generator too narrow: %d fractional values, %d integral later rows", fractional, ties)
	}
}

// TestBoundFormOverflowPanics: where the scaled numerator leaves int64 the
// integer form must fail as loudly as the rational arithmetic did, never
// return a wrapped bound.
func TestBoundFormOverflowPanics(t *testing.T) {
	cases := map[string]struct {
		coef ilin.RatVec
		cst  rat.Rat
		x    []int64
	}{
		"product":  {ilin.RatVec{rat.FromInt(1 << 40)}, rat.Zero, []int64{1 << 40}},
		"sum":      {ilin.RatVec{rat.FromInt(1 << 31), rat.FromInt(1 << 31)}, rat.Zero, []int64{1 << 31, 1 << 31}},
		"scaled":   {ilin.RatVec{rat.New(1, 3), rat.New(1<<40, 5)}, rat.Zero, []int64{1, 1 << 30}},
		"constant": {ilin.RatVec{rat.FromInt(1)}, rat.FromInt(math.MaxInt64 - 1), []int64{2}},
		"scaling":  {ilin.RatVec{rat.New(1<<62, 3), rat.New(1, 5)}, rat.Zero, []int64{1, 1}},
	}
	for name, tc := range cases {
		for _, lower := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/lower=%v", name, lower), func(t *testing.T) {
				defer func() {
					r := recover()
					if _, ok := r.(rat.Overflow); !ok {
						t.Fatalf("recovered %v, want a rat.Overflow panic", r)
					}
				}()
				vb := VarBounds{Lower: []Affine{affineOf(tc.coef, tc.cst)}}
				vb.Upper = vb.Lower
				if lower {
					v, _ := vb.EvalLower(tc.x)
					t.Fatalf("EvalLower returned %d instead of panicking", v)
				}
				v, _ := vb.EvalUpper(tc.x)
				t.Fatalf("EvalUpper returned %d instead of panicking", v)
			})
		}
	}
}

// FuzzLoopBounds: on a random system over 2–3 variables — a box of at most
// 12 integers per side cut by up to four half-spaces with coefficients
// |a| ≤ 6 — the loop nest LoopBounds builds must scan exactly the box's
// points that System.Contains accepts, in lexicographic order.
func FuzzLoopBounds(f *testing.F) {
	f.Add([]byte{0, 0, 11, 6, 11})
	f.Add([]byte{1, 3, 9, 0, 7, 2, 5, 7, 5, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		n := 2 + int(next()%2)
		s := NewSystem(n)
		lo, hi := make([]int64, n), make([]int64, n)
		for k := 0; k < n; k++ {
			lo[k] = next()%13 - 6
			hi[k] = lo[k] + next()%12 // at most 12 integers per side
			s.AddRange(k, lo[k], hi[k])
		}
		for c := 0; c < 4 && len(data) > 0; c++ {
			coef := make(ilin.RatVec, n)
			for k := range coef {
				coef[k] = rat.FromInt(next()%13 - 6)
			}
			s.Add(NewConstraint(coef, rat.New(next()%61-30, 1+next()%3)))
		}
		var want []ilin.Vec
		x := make(ilin.Vec, n)
		var brute func(k int)
		brute = func(k int) {
			if k == n {
				if s.Contains(x) {
					want = append(want, x.Clone())
				}
				return
			}
			for v := lo[k]; v <= hi[k]; v++ {
				x[k] = v
				brute(k + 1)
			}
		}
		brute(0)
		nb, err := LoopBounds(s)
		if err != nil {
			if len(want) > 0 {
				t.Fatalf("LoopBounds: %v, but %d points satisfy\n%v", err, len(want), s)
			}
			return
		}
		var got []ilin.Vec
		nb.Scan(func(p ilin.Vec) bool {
			got = append(got, p.Clone())
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("scan visits %d points, brute force %d\n%v\nbounds:\n%v", len(got), len(want), s, nb)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("point %d: scan %v, brute force %v\n%v", i, got[i], want[i], s)
			}
		}
	})
}

// ge builds the inequality Coef·x ≥ Rhs in ≤ form.
func ge(coef ilin.RatVec, rhs rat.Rat) Constraint {
	return NewConstraint(coef.Scale(rat.FromInt(-1)), rhs.Neg())
}
