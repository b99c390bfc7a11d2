package exec

import (
	"math"
	"math/rand"
	"testing"

	"tilespace/internal/ilin"
)

// treeSource decodes a byte string into expression trees: every choice the
// generator makes consumes one byte (zero once the string is exhausted), so
// a fuzzer's mutations reshape the trees and a fixed string is a fixed case.
type treeSource struct {
	data []byte
	made []*Expr // nodes built so far: reused to make shared subexpressions
}

func (ts *treeSource) next() int {
	if len(ts.data) == 0 {
		return 0
	}
	b := ts.data[0]
	ts.data = ts.data[1:]
	return int(b)
}

// specials are the values arithmetic treats specially; reads and constants
// are drawn from them as often as from ordinary numbers.
var specials = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, -2.5, 7}

// testCoef is the Coef of generated trees: a pure function of the point, and
// testCoefC the same in C.
func testCoef(j ilin.Vec) float64 { return float64(j[0]*3-j[1]) * 0.25 }

const testCoefC = "((double)(j[0]*3 - j[1]) * 0.25)"

// tree builds one expression of at most the given depth over q dependences
// of the given width.
func (ts *treeSource) tree(depth, q, width int) *Expr {
	c := ts.next()
	if depth == 0 || c%8 < 3 {
		var e *Expr
		switch c % 4 {
		case 0:
			e = Const(specials[ts.next()%len(specials)])
		case 1:
			e = Coef(testCoef, testCoefC)
		default:
			e = Read(ts.next()%q, ts.next()%width)
		}
		ts.made = append(ts.made, e)
		return e
	}
	if c%8 == 3 && len(ts.made) > 0 {
		return ts.made[ts.next()%len(ts.made)] // a shared node
	}
	var e *Expr
	switch l := ts.tree(depth-1, q, width); c % 8 {
	case 4:
		e = Add(l, ts.tree(depth-1, q, width))
	case 5:
		e = Sub(l, ts.tree(depth-1, q, width))
	case 6:
		e = Mul(l, ts.tree(depth-1, q, width))
	case 7:
		if ts.next()%4 == 0 {
			e = Neg(l)
		} else {
			e = Div(l, ts.tree(depth-1, q, width))
		}
	default:
		e = Neg(l)
	}
	ts.made = append(ts.made, e)
	return e
}

// sameFloat is bit equality, with every NaN equal to every other: which
// operand's payload a NaN result carries is the code generator's choice per
// instruction site, not the program's.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkRowsMatchPoints builds a statement from data and checks that Row, at
// lengths 1, 3 and 257, computes what Point computes point by point.
func checkRowsMatchPoints(t *testing.T, data []byte) {
	ts := &treeSource{data: data}
	width := 1 + ts.next()%2
	q := 1 + ts.next()%3
	slots := make([]*Expr, width)
	for s := range slots {
		slots[s] = ts.tree(5, q, width)
	}
	k := Statement(slots...)
	if err := k.check(width, q); err != nil {
		t.Fatalf("generated statement does not fit its own program: %v", err)
	}
	const most = 257
	rng := rand.New(rand.NewSource(int64(len(data))*7919 + int64(ts.next())))
	reads := make([][]float64, q)
	for l := range reads {
		reads[l] = make([]float64, most*width)
		for i := range reads[l] {
			if rng.Intn(3) == 0 {
				reads[l][i] = specials[rng.Intn(len(specials))]
			} else {
				reads[l][i] = rng.NormFloat64() * 10
			}
		}
	}
	j0, step := ilin.Vec{5, -3}, ilin.Vec{1, 2}
	want := make([]float64, most*width)
	pt := make([][]float64, q)
	j := j0.Clone()
	for i := 0; i < most; i++ {
		for l := range pt {
			pt[l] = reads[l][i*width : (i+1)*width]
		}
		k.Point(j, pt, want[i*width:(i+1)*width])
		for d := range j {
			j[d] += step[d]
		}
	}
	for _, n := range []int{1, 3, most} {
		got := make([]float64, n*width)
		k.Row(n, j0, step, reads, got)
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("width %d, %d dependences, length %d: point %d slot %d: row-wise %v (%#x), per point %v (%#x)",
					width, q, n, i/width, i%width, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestStatementRowsMatchPoints: random expression trees — shared nodes, ÷0,
// NaN, ±Inf, −0, width 2, Coef — evaluated row-wise equal their per-point
// evaluation bit for bit.
func TestStatementRowsMatchPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for c := 0; c < 400; c++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkRowsMatchPoints(t, data)
	}
}

// FuzzStmt is TestStatementRowsMatchPoints with the fuzzer choosing the trees.
func FuzzStmt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 7, 4, 6, 2, 1, 0, 5, 0, 6, 7, 1, 3, 0, 9})
	f.Add([]byte{0, 0, 7, 1, 2, 0, 0, 0, 1}) // x ÷ 0
	f.Add([]byte{1, 1, 6, 4, 1, 3, 0, 5, 1, 3, 1, 6, 3, 2, 7, 0, 3, 0})
	f.Fuzz(checkRowsMatchPoints)
}

// TestStatementLowering pins what the lowered code looks like where it
// matters: a width-1 root writes the output in place, a leaf root is a move,
// a shared node is computed once, and temporaries are reused.
func TestStatementLowering(t *testing.T) {
	sum := sumStatement(5).stmt
	if len(sum.code) != 5 || sum.nreg != 2 {
		t.Fatalf("1 + r0 + … + r4 lowered to %d instructions over %d registers, want 5 over 2 (one constant, one temporary)", len(sum.code), sum.nreg)
	}
	if last := sum.code[len(sum.code)-1]; last.dst != outOperand {
		t.Fatalf("the root does not write the output in place: %+v", last)
	}
	if leaf := Statement(Read(0, 0)).stmt; len(leaf.code) != 1 || leaf.code[0].op != opMove {
		t.Fatalf("a leaf root lowered to %+v, want one move", leaf.code)
	}
	a := Coef(testCoef, testCoefC)
	aa := Mul(a, a)
	shared := Statement(Add(aa, Read(0, 0)), Sub(aa, Read(0, 1))).stmt
	coefs, muls := 0, 0
	for _, in := range shared.code {
		switch in.op {
		case opCoef:
			coefs++
		case opMul:
			muls++
		}
	}
	if coefs != 1 || muls != 1 {
		t.Fatalf("shared a·a evaluated %d coefficients and %d products, want 1 and 1", coefs, muls)
	}
	out := []float64{0, 0}
	Statement(Add(aa, Read(0, 0)), Sub(aa, Read(0, 1))).Point(ilin.Vec{4, 4}, [][]float64{{1, 2}}, out)
	if out[0] != 2*2+1 || out[1] != 2*2-2 {
		t.Fatalf("shared-node statement computed %v, want [5 2]", out)
	}
}

// TestPointManyRegisters: a statement needing more registers than Point
// keeps on its stack still evaluates (on a heap register file).
func TestPointManyRegisters(t *testing.T) {
	// A right-leaning chain keeps every left operand live: depth registers.
	var build func(d int) *Expr
	build = func(d int) *Expr {
		if d == 0 {
			return Read(0, 0)
		}
		return Add(Mul(Read(0, 0), Const(float64(d))), build(d-1))
	}
	const depth = 2 * pointRegs
	k := Statement(build(depth))
	if k.stmt.nreg <= pointRegs {
		t.Fatalf("fixture needs %d registers, wanted more than %d", k.stmt.nreg, pointRegs)
	}
	out := []float64{0}
	k.Point(ilin.Vec{0}, [][]float64{{1}}, out)
	if want := float64(depth*(depth+1)/2 + 1); out[0] != want {
		t.Fatalf("deep statement = %v, want %v", out[0], want)
	}
}

// TestKernelC pins the C a statement prints: slots in order, every operation
// parenthesised as evaluated, shared nodes at each use, constants as shortest
// round-trip decimals that read as doubles, Coef as its C form — and the
// kernels that have no C form.
func TestKernelC(t *testing.T) {
	a := Coef(testCoef, testCoefC)
	aa := Mul(a, a)
	k := Statement(
		Sub(Add(Read(0, 0), Div(Mul(Read(2, 0), Const(0.05)), Read(2, 1))), Neg(Const(3))),
		Add(aa, Sub(aa, Mul(Const(1e21), Const(-0.2)))),
	)
	got, err := k.C()
	if err != nil {
		t.Fatal(err)
	}
	want := "out[0] = ((R0[0] + ((R2[0] * 0.05) / R2[1])) - (-3.0)); " +
		"out[1] = ((" + testCoefC + " * " + testCoefC + ") + ((" + testCoefC + " * " + testCoefC + ") - (1e+21 * -0.2)));"
	if got != want {
		t.Errorf("C() =\n%s\nwant\n%s", got, want)
	}
	if _, err := PointKernel(func(ilin.Vec, [][]float64, []float64) {}).C(); err == nil {
		t.Error("an opaque PointKernel printed as C")
	}
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		if c, err := Statement(Add(Read(0, 0), Const(v))).C(); err == nil {
			t.Errorf("the constant %v printed as %q", v, c)
		}
	}
}
