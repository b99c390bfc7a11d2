package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tilespace/internal/ilin"
)

// evalTree evaluates e at point j over reads by walking the tree, one IEEE
// operation per node in the tree's order, every product rounded: it shares
// nothing with lowering, so it is the oracle both Kernel.Point and
// Kernel.Row are checked against.
func evalTree(e *Expr, j ilin.Vec, reads [][]float64) float64 {
	switch e.op {
	case opConst:
		return e.val
	case opRead:
		return reads[e.dep][e.slot]
	case opCoef:
		return e.coef(j)
	case opNeg:
		return -evalTree(e.l, j, reads)
	}
	l, r := evalTree(e.l, j, reads), evalTree(e.r, j, reads)
	switch e.op {
	case opAdd:
		return l + r
	case opSub:
		return l - r
	case opMul:
		return float64(l * r)
	}
	return l / r
}

// treePoint is Kernel.Point by evalTree: every slot from the reads, then
// every slot stored. An opaque body is called as it is.
func (k Kernel) treePoint(j ilin.Vec, reads [][]float64, out []float64) {
	if k.stmt == nil {
		k.point(j, reads, out)
		return
	}
	vals := make([]float64, len(out))
	for s, e := range k.stmt.slots {
		vals[s] = evalTree(e, j, reads)
	}
	copy(out, vals)
}

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
// are drawn from them as often as from ordinary numbers. The two NaNs carry
// different payloads, one of them signalling.
var specials = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0_0000_0000_0123), math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, -2.5, 7}

// testCoef is the Coef of generated trees: a pure function of the point, and
// testCoefC the same in C.
func testCoef(j ilin.Vec) float64 { return float64(j[0]*3-j[1]) * 0.25 }

const testCoefC = "((double)(j[0]*3 - j[1]) * 0.25)"

func (ts *treeSource) special() *Expr { return Const(specials[ts.next()%len(specials)]) }

// tree builds one expression of at most the given depth over q dependences
// of the given width.
func (ts *treeSource) tree(depth, q, width int) *Expr {
	c := ts.next()
	if depth == 0 || c%8 < 3 {
		var e *Expr
		switch c % 4 {
		case 0:
			e = ts.special()
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

// fold builds a left fold of 1…9 operands — nine is one past foldMax and
// must not fuse — each a read, a shared node or (the first) a constant,
// joined mostly by + and now and then by −.
func (ts *treeSource) fold(q, width int) *Expr {
	var e *Expr
	for k := 1 + ts.next()%9; k > 0; k-- {
		var x *Expr
		switch c := ts.next() % 6; {
		case c == 0 && e == nil:
			x = ts.special()
		case c == 1 && len(ts.made) > 0:
			x = ts.made[ts.next()%len(ts.made)]
		default:
			x = Read(ts.next()%q, ts.next()%width)
		}
		switch {
		case e == nil:
			e = x
		case ts.next()%5 == 0:
			e = Sub(e, x)
		default:
			e = Add(e, x)
		}
	}
	ts.made = append(ts.made, e)
	return e
}

// term scales a fold by a constant on either side, or not at all.
func (ts *treeSource) term(q, width int) *Expr {
	f := ts.fold(q, width)
	switch ts.next() % 5 {
	case 0:
		return Mul(ts.special(), f)
	case 1:
		return Mul(f, ts.special())
	case 2:
		return Div(f, ts.special())
	case 3:
		return Div(ts.special(), f)
	}
	return f
}

// sum builds the shapes lowering fuses: a term, or two joined by ±.
func (ts *treeSource) sum(q, width int) *Expr {
	t := ts.term(q, width)
	switch ts.next() % 3 {
	case 0:
		return Add(t, ts.term(q, width))
	case 1:
		return Sub(t, ts.term(q, width))
	}
	return t
}

// sameFloat is bit equality, with every NaN equal to every other: which
// operand's payload a NaN result carries where two NaNs meet is the code
// generator's choice per instruction site, not the program's.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkRowsMatchPoints builds a statement from data — a fusible sum or a
// general tree per slot — and checks that Point, and Row at lengths 1, 3 and
// 257, compute what evalTree computes point by point; then that a row whose
// dependence 0 reads the row itself 1, 2 or 3 points back, as SOR's does,
// computes what the points do in order.
func checkRowsMatchPoints(t *testing.T, data []byte) {
	ts := &treeSource{data: data}
	width := 1 + ts.next()%2
	q := 1 + ts.next()%3
	fusible := ts.next()%2 == 0
	slots := make([]*Expr, width)
	for s := range slots {
		if fusible {
			slots[s] = ts.sum(q, width)
		} else {
			slots[s] = ts.tree(5, q, width)
		}
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
	compare := func(what string, got, want []float64) {
		t.Helper()
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s, width %d, %d dependences: point %d slot %d: %v (%#x), the tree walk %v (%#x)",
					what, width, q, i/width, i%width, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	j0, step := ilin.Vec{5, -3}, ilin.Vec{1, 2}
	want := make([]float64, most*width)
	point := make([]float64, most*width)
	pt := make([][]float64, q)
	j := j0.Clone()
	for i := 0; i < most; i++ {
		for l := range pt {
			pt[l] = reads[l][i*width : (i+1)*width]
		}
		k.treePoint(j, pt, want[i*width:(i+1)*width])
		k.Point(j, pt, point[i*width:(i+1)*width])
		for d := range j {
			j[d] += step[d]
		}
	}
	compare("Point", point, want)
	for _, n := range []int{1, 3, most} {
		got := make([]float64, n*width)
		k.Row(n, j0, step, reads, got)
		compare(fmt.Sprintf("Row of %d", n), got, want)
	}
	h := 1 + ts.next()%3
	compare(fmt.Sprintf("a row at in-row distance %d", h), hazardRow(k, h, j0, step, reads, false), hazardRow(k, h, j0, step, reads, true))
}

// hazardRow evaluates k over a row whose dependence 0 reads the row itself h
// points back, seeded with the first h values of reads[0]: through the
// executor's rowEval.row, or, if byTree, point by point in order by
// evalTree. It returns the row's values.
func hazardRow(k Kernel, h int, j0, step ilin.Vec, reads [][]float64, byTree bool) []float64 {
	w := k.stmt.width
	n := len(reads[0])/w - h
	buf := make([]float64, len(reads[0]))
	copy(buf, reads[0][:h*w])
	if !byTree {
		ev := newRowEval(k, w, len(j0), len(reads), n)
		copy(ev.reads, reads)
		ev.reads[0] = buf
		copy(ev.j, j0)
		ev.row(k, int64(n), int64(h), buf[h*w:], step)
		return buf[h*w:]
	}
	pt := make([][]float64, len(reads))
	j := j0.Clone()
	for i := 0; i < n; i++ {
		for l := range pt {
			pt[l] = reads[l][i*w:][:w]
		}
		pt[0] = buf[i*w:][:w]
		k.treePoint(j, pt, buf[(h+i)*w:][:w])
		for d := range j {
			j[d] += step[d]
		}
	}
	return buf[h*w:]
}

// TestStatementRowsMatchPoints: random statements — fusible sums and general
// trees, shared nodes, ÷0, NaN payloads, ±Inf, −0, width 2, Coef, rows that
// read their own earlier points — evaluated per point and row-wise equal the
// tree walk bit for bit.
func TestStatementRowsMatchPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for c := 0; c < 600; c++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkRowsMatchPoints(t, data)
	}
}

// FuzzStmt is TestStatementRowsMatchPoints with the fuzzer choosing the trees.
func FuzzStmt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 7, 4, 6, 2, 1, 0, 5, 0, 6, 7, 1, 3, 0, 9})
	f.Add([]byte{0, 0, 1, 7, 1, 2, 0, 0, 0, 1}) // x ÷ 0
	f.Add([]byte{1, 1, 1, 6, 4, 1, 3, 0, 5, 1, 3, 1, 6, 3, 2, 7, 0, 3, 0})
	// Fusible sums: 0.1·Σ5, Jacobi's shape; a leading signalling NaN folded
	// with reads and divided by +Inf; a nine-operand fold, which must not
	// fuse; 1 ÷ (r0 + r0), which does not fuse; and, at width 2, a fold
	// scaled by 0.1 minus the same fold, shared, times −2.5.
	f.Add([]byte{0, 2, 0, 4, 2, 0, 0, 2, 1, 0, 1, 2, 2, 0, 1, 2, 0, 0, 1, 2, 1, 0, 1, 0, 10, 2, 5, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 7, 2, 0, 0, 1, 2, 0, 0, 1, 2, 4, 2, 9, 1})
	f.Add([]byte{0, 0, 0, 8, 2, 0, 0, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 4, 2, 3, 2})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 2, 0, 0, 1, 3, 2, 2, 4, 0})
	f.Add([]byte{1, 1, 0, 3, 2, 0, 0, 2, 1, 1, 1, 2, 0, 1, 1, 2, 1, 0, 1, 0, 10, 1, 0, 1, 0, 1, 11, 1, 1, 0, 2, 0, 0, 1, 4, 2, 6, 2})
	f.Fuzz(checkRowsMatchPoints)
}

// TestStatementLowering pins what the lowered code looks like where it
// matters: Jacobi's 0.2·Σ5, Heat3D's Σ7/7, SOR's w/4·Σ4 + (1−w)·r4 and
// 1 + Σ5 (as apps builds them) each lower to one fused instruction that reads
// the LDS in place, one pass over the row; a nine-operand fold does not fuse;
// ADI lowers to the per-operation code it always has (a shared node computed
// once, temporaries reused); a leaf root is a move.
func TestStatementLowering(t *testing.T) {
	r := func(l int) *Expr { return Read(l, 0) }
	fold := func(acc *Expr, from, to int) *Expr {
		for l := from; l < to; l++ {
			acc = Add(acc, r(l))
		}
		return acc
	}
	for name, k := range map[string]Kernel{
		"jacobi": Statement(Mul(Const(0.2), fold(r(0), 1, 5))),
		"heat3d": Statement(Div(fold(Const(0), 0, 7), Const(7))),
		"sor":    Statement(Add(Mul(Const(1.2/4), fold(r(0), 1, 4)), Mul(Const(1-1.2), r(4)))),
		"sum":    sumStatement(5),
	} {
		st := k.stmt
		if len(st.code) != 1 || st.code[0].op != opSum || st.code[0].dst != outOperand || !st.onePass {
			t.Errorf("%s lowered to %+v, want one fused instruction writing the output", name, st.code)
		}
		for _, x := range st.sum.x {
			for _, o := range x {
				if o >= 0 && int(o) >= len(st.consts) {
					t.Errorf("%s: a fused operand is the temporary %d, want reads and constants only", name, o)
				}
			}
		}
	}
	nine := Statement(fold(r(0), 1, 9)).stmt
	if len(nine.code) != 8 || slices.ContainsFunc(nine.code, func(in instr) bool { return in.op != opAdd }) {
		t.Errorf("a nine-operand fold lowered to %+v, want eight additions", nine.code)
	}
	// ADI: X = prev.X + left.X·a/left.B − up.X·a/up.B, B = prev.B − a·a/left.B − a·a/up.B.
	a := Coef(testCoef, testCoefC)
	x, b := func(l int) *Expr { return Read(l, 0) }, func(l int) *Expr { return Read(l, 1) }
	aa := Mul(a, a)
	adi := Statement(
		Sub(Add(x(0), Div(Mul(x(2), a), b(2))), Div(Mul(x(1), a), b(1))),
		Sub(Sub(b(0), Div(aa, b(2))), Div(aa, b(1))),
	).stmt
	want := []instr{
		{opLoad, 0, 0, 0}, {opLoad, 1, 2, 0}, {opCoef, 2, 0, 0}, {opMul, 1, 1, 2}, {opLoad, 3, 2, 1},
		{opDiv, 3, 1, 3}, {opAdd, 3, 0, 3}, {opLoad, 0, 1, 0}, {opMul, 0, 0, 2}, {opLoad, 1, 1, 1},
		{opDiv, 1, 0, 1}, {opSub, 1, 3, 1}, {opLoad, 3, 0, 1}, {opMul, 2, 2, 2}, {opLoad, 0, 2, 1},
		{opDiv, 0, 2, 0}, {opSub, 0, 3, 0}, {opLoad, 3, 1, 1}, {opDiv, 3, 2, 3}, {opSub, 3, 0, 3},
		{opStore, 0, 1, 0}, {opStore, 0, 3, 1},
	}
	if !slices.Equal(adi.code, want) || adi.nreg != 4 || len(adi.consts) != 0 || adi.onePass {
		t.Errorf("ADI lowered to %+v over %d registers, want %+v over 4", adi.code, adi.nreg, want)
	}
	if leaf := Statement(Read(0, 0)).stmt; len(leaf.code) != 1 || leaf.code[0].op != opMove || leaf.onePass {
		t.Fatalf("a leaf root lowered to %+v, want one move, not one pass", leaf.code)
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

// TestPointAllocatesNothing: Point evaluates on a stack register file and
// the caller's j, fused or not, Coef or not — the facade's DSL body calls it
// once per iteration point.
func TestPointAllocatesNothing(t *testing.T) {
	a := Coef(testCoef, testCoefC)
	for name, k := range map[string]Kernel{
		"jacobi": Statement(Mul(Const(0.2), Add(Add(Read(0, 0), Read(1, 0)), Read(2, 0)))),
		"coef":   Statement(Sub(Read(0, 0), Div(Mul(a, a), Read(1, 1))), Add(Read(1, 0), a)),
	} {
		j, reads, out := ilin.Vec{3, 4}, [][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{0, 0}
		if allocs := testing.AllocsPerRun(20, func() { k.Point(j, reads, out[:k.stmt.width]) }); allocs != 0 {
			t.Errorf("%s: Point allocates %v times per call, want 0", name, allocs)
		}
		if !slices.Equal(j, ilin.Vec{3, 4}) {
			t.Errorf("%s: Point moved the caller's point to %v", name, j)
		}
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
