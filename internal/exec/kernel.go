package exec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tilespace/internal/ilin"
)

// This file is the loop body F as data. The paper's generated code inlines F
// in the TTIS loop (§3.2); an interpreter gets the same effect by being
// handed F as a statement — one expression tree per output slot over the
// dependence reads — lowering it once to straight-line register code, and
// evaluating that code one operation at a time over a whole TTIS row: every
// instruction is a tight loop over contiguous floats, so the per-point cost
// of interpretation (dispatch, operand lookup, the indirect call of a
// closure) is paid once per row. Every operation is one IEEE operation
// applied in the order the tree gives — nothing is fused, re-associated or
// folded — so a row of length L computes bit for bit what L per-point
// evaluations compute, and the per-point form (Kernel.Point) is the same
// code at length 1.

// Expr is a node of a statement's expression tree, built with Const, Read,
// Coef, Add, Sub, Mul, Div and Neg. A node may be used more than once (a
// shared subexpression is evaluated once).
type Expr struct {
	op        opcode
	val       float64                  // opConst
	dep, slot int                      // opRead
	coef      func(j ilin.Vec) float64 // opCoef
	coefC     string                   // opCoef: coef in C
	l, r      *Expr
}

type opcode uint8

const (
	opConst opcode = iota
	opRead
	opCoef
	opAdd
	opSub
	opMul
	opDiv
	opNeg
	// Lowered code only.
	opMove  // dst = a
	opLoad  // dst = slot b of dependence a (strided)
	opStore // slot b of out = a (strided)
)

// Const is the constant v.
func Const(v float64) *Expr { return &Expr{op: opConst, val: v} }

// Read is slot `slot` of the value vector read through dependence `dep`:
// the kernel's reads[dep][slot].
func Read(dep, slot int) *Expr { return &Expr{op: opRead, dep: dep, slot: slot} }

// Coef is a coefficient that depends on the iteration point only (an input
// array such as ADI's A[i,j]): f must be a pure function of j, safe for
// concurrent calls, and must not retain j. c is f as a C expression over the
// iteration point j[0…n), operation for operation: what Kernel.C prints. It is
// the one node that makes the executor materialise the iteration point.
func Coef(f func(j ilin.Vec) float64, c string) *Expr { return &Expr{op: opCoef, coef: f, coefC: c} }

// Add is l + r.
func Add(l, r *Expr) *Expr { return &Expr{op: opAdd, l: l, r: r} }

// Sub is l − r.
func Sub(l, r *Expr) *Expr { return &Expr{op: opSub, l: l, r: r} }

// Mul is l × r.
func Mul(l, r *Expr) *Expr { return &Expr{op: opMul, l: l, r: r} }

// Div is l ÷ r.
func Div(l, r *Expr) *Expr { return &Expr{op: opDiv, l: l, r: r} }

// Neg is −x.
func Neg(x *Expr) *Expr { return &Expr{op: opNeg, l: x} }

// Kernel is the loop body F: what computes an iteration point's value vector
// from the value vectors read through each dependence. It is either a
// statement (Statement), which the executor evaluates a TTIS row at a time,
// or an opaque per-point body (PointKernel), which it calls once per point.
// The zero Kernel is neither.
type Kernel struct {
	stmt  *statement
	point func(j ilin.Vec, reads [][]float64, out []float64)
}

// PointKernel wraps an opaque loop body: given the iteration point j and the
// value vectors read through each dependence (reads[l] is the value at
// j − d_l), f writes the point's value vector into out. f must not retain
// the slices and must be safe for concurrent calls.
func PointKernel(f func(j ilin.Vec, reads [][]float64, out []float64)) Kernel {
	return Kernel{point: f}
}

// Statement is the loop body given as data: slots[s] computes slot s of the
// point's value vector, so the program's width is len(slots). Every slot is
// evaluated from the values read before any is stored.
func Statement(slots ...*Expr) Kernel {
	return Kernel{stmt: lower(slots)}
}

// IsZero reports whether the kernel carries neither form.
func (k Kernel) IsZero() bool { return k.stmt == nil && k.point == nil }

// check reports whether the kernel fits a program of the given width over q
// dependences.
func (k Kernel) check(width, q int) error {
	st := k.stmt
	if st == nil {
		return nil
	}
	if st.width != width {
		return fmt.Errorf("exec: statement kernel computes %d slots, the program's width is %d", st.width, width)
	}
	if st.ndeps > q {
		return fmt.Errorf("exec: statement kernel reads dependence %d, the nest has %d", st.ndeps-1, q)
	}
	if st.nslots > width {
		return fmt.Errorf("exec: statement kernel reads slot %d, the program's width is %d", st.nslots-1, width)
	}
	return nil
}

// pointRegs is how many registers Point keeps on the stack.
const pointRegs = 32

// Point evaluates the kernel at one iteration point: the per-point form the
// sequential references use. A statement runs its lowered code at length 1.
func (k Kernel) Point(j ilin.Vec, reads [][]float64, out []float64) {
	if k.stmt == nil {
		k.point(j, reads, out)
		return
	}
	var buf [pointRegs]float64
	regs := buf[:]
	if k.stmt.nreg > len(buf) {
		regs = make([]float64, k.stmt.nreg)
	}
	copy(regs, k.stmt.consts)
	k.stmt.point(regs, reads, out, 0, j)
}

// Row evaluates the kernel at the n consecutive points j, j+step, …: reads[l]
// holds the n value vectors read through dependence l and out receives the n
// results, Width values per point. A statement runs an instruction at a time
// over all n points, which is what the executor does with a TTIS row (on
// scratch it keeps; Row allocates its own); the results equal n calls of
// Point bit for bit, provided no read aliases an earlier point's output.
func (k Kernel) Row(n int, j, step ilin.Vec, reads [][]float64, out []float64) {
	jb := j.Clone()
	if st := k.stmt; st != nil {
		st.run(st.registers(n), n, n, reads, out, j, step, jb)
		return
	}
	w := len(out) / n
	pt := make([][]float64, len(reads))
	for i := 0; i < n; i++ {
		for l := range reads {
			pt[l] = reads[l][i*w:][:w]
		}
		k.point(jb, pt, out[i*w:][:w])
		for d := range jb {
			jb[d] += step[d]
		}
	}
}

// C prints the kernel as the C statement block the generated program inlines
// in its TTIS loop: one `out[s] = …;` per slot over the reads R<l>[s] (slot s
// read through dependence l) and the point j, every operation parenthesised
// in the executor's order, a shared node printed at each use, a constant as
// its shortest round-trip decimal and a Coef as its C form. Compiled with
// -ffp-contract=off it computes what Point computes, bit for bit. An opaque
// PointKernel or a non-finite constant has no C form.
func (k Kernel) C() (string, error) {
	if k.stmt == nil {
		return "", fmt.Errorf("exec: an opaque PointKernel has no C form")
	}
	for _, v := range k.stmt.consts {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return "", fmt.Errorf("exec: the constant %v has no C literal", v)
		}
	}
	stores := make([]string, len(k.stmt.slots))
	for s, e := range k.stmt.slots {
		stores[s] = fmt.Sprintf("out[%d] = %s;", s, e.c())
	}
	return strings.Join(stores, " "), nil
}

// c prints e in C, as Kernel.C describes.
func (e *Expr) c() string {
	switch e.op {
	case opConst:
		s := strconv.FormatFloat(e.val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0" // a double, not an int
		}
		return s
	case opRead:
		return fmt.Sprintf("R%d[%d]", e.dep, e.slot)
	case opCoef:
		return e.coefC
	case opNeg:
		return "(-" + e.l.c() + ")"
	}
	return "(" + e.l.c() + " " + "+-*/"[e.op-opAdd:][:1] + " " + e.r.c() + ")"
}

// statement is a lowered Statement: straight-line code over a register file.
// Registers [0, len(consts)) hold the constants and are never written;
// the rest are temporaries. An operand x ≥ 0 names register x; at width 1 an
// operand x < 0 names dependence ^x read in place, and outOperand as a
// destination names the output itself. At width > 1 reads are gathered into
// registers (opLoad) and every slot is scattered at the end (opStore), all
// loads before all stores.
type statement struct {
	slots  []*Expr // the trees, which C prints
	width  int
	ndeps  int // 1 + the highest dependence read
	nslots int // 1 + the highest slot read
	consts []float64
	nreg   int
	coefs  []func(j ilin.Vec) float64
	code   []instr
}

type instr struct {
	op        opcode
	dst, a, b int32
}

const outOperand = math.MinInt32

// lowerer carries the state of one lowering.
type lowerer struct {
	st   *statement
	uses map[*Expr]int    // uses of a node not yet consumed
	at   map[*Expr]int32  // the operand holding an emitted node's value
	creg map[uint64]int32 // constant registers by bit pattern
	free []int32          // temporaries free for reuse
}

func lower(slots []*Expr) *statement {
	if len(slots) == 0 {
		panic("exec: Statement needs at least one slot")
	}
	lw := &lowerer{
		st:   &statement{slots: append([]*Expr(nil), slots...), width: len(slots)},
		uses: map[*Expr]int{}, at: map[*Expr]int32{}, creg: map[uint64]int32{},
	}
	for s, e := range slots {
		if e == nil {
			panic(fmt.Sprintf("exec: Statement slot %d is nil", s))
		}
		lw.count(e)
	}
	lw.st.nreg = len(lw.st.consts)
	st := lw.st
	if st.width == 1 {
		e := slots[0]
		x := lw.emit(e)
		if last := len(st.code) - 1; last >= 0 && st.code[last].dst == x && lw.uses[e] == 1 {
			st.code[last].dst = outOperand // the root writes the output in place
		} else {
			st.code = append(st.code, instr{op: opMove, dst: outOperand, a: x})
		}
		return st
	}
	out := make([]int32, len(slots))
	for s, e := range slots {
		out[s] = lw.emit(e) // the count pass's use keeps the register held
	}
	for s, x := range out {
		st.code = append(st.code, instr{op: opStore, a: x, b: int32(s)})
	}
	return st
}

// count tallies the uses of every node, assigns the constant registers and
// records which dependences and slots are read.
func (lw *lowerer) count(e *Expr) {
	lw.uses[e]++
	if lw.uses[e] > 1 {
		return
	}
	st := lw.st
	switch e.op {
	case opConst:
		bits := math.Float64bits(e.val)
		if _, ok := lw.creg[bits]; !ok {
			lw.creg[bits] = int32(len(st.consts))
			st.consts = append(st.consts, e.val)
		}
	case opRead:
		if e.dep < 0 || e.slot < 0 {
			panic(fmt.Sprintf("exec: Read(%d, %d): negative index", e.dep, e.slot))
		}
		st.ndeps = max(st.ndeps, e.dep+1)
		st.nslots = max(st.nslots, e.slot+1)
	case opCoef:
		if e.coef == nil || e.coefC == "" {
			panic("exec: Coef needs a function and its C form")
		}
	case opNeg:
		lw.count(e.l)
	case opAdd, opSub, opMul, opDiv:
		lw.count(e.l)
		lw.count(e.r)
	default:
		panic(fmt.Sprintf("exec: malformed expression node (op %d)", e.op))
	}
}

// emit returns the operand holding e's value, emitting its code on first use.
func (lw *lowerer) emit(e *Expr) int32 {
	if x, ok := lw.at[e]; ok {
		return x
	}
	st := lw.st
	var x int32
	switch e.op {
	case opConst:
		x = lw.creg[math.Float64bits(e.val)]
	case opRead:
		if st.width == 1 && e.slot == 0 {
			x = ^int32(e.dep)
		} else {
			x = lw.temp()
			st.code = append(st.code, instr{op: opLoad, dst: x, a: int32(e.dep), b: int32(e.slot)})
		}
	case opCoef:
		x = lw.temp()
		st.code = append(st.code, instr{op: opCoef, dst: x, a: int32(len(st.coefs))})
		st.coefs = append(st.coefs, e.coef)
	case opNeg:
		a := lw.emit(e.l)
		lw.release(e.l)
		x = lw.temp()
		st.code = append(st.code, instr{op: opNeg, dst: x, a: a})
	default:
		a, b := lw.emit(e.l), lw.emit(e.r)
		lw.release(e.l)
		lw.release(e.r)
		x = lw.temp()
		st.code = append(st.code, instr{op: e.op, dst: x, a: a, b: b})
	}
	lw.at[e] = x
	return x
}

// temp takes a free temporary register, or a new one.
func (lw *lowerer) temp() int32 {
	if n := len(lw.free); n > 0 {
		x := lw.free[n-1]
		lw.free = lw.free[:n-1]
		return x
	}
	lw.st.nreg++
	return int32(lw.st.nreg - 1)
}

// release consumes one use of e; after the last, its temporary is free.
func (lw *lowerer) release(e *Expr) {
	lw.uses[e]--
	if x := lw.at[e]; lw.uses[e] == 0 && int(x) >= len(lw.st.consts) {
		lw.free = append(lw.free, x)
	}
}

// registers allocates a register file of the given stride for run, the
// constants' registers filled.
func (st *statement) registers(stride int) []float64 {
	regs := make([]float64, st.nreg*stride)
	for x, v := range st.consts {
		reg := regs[x*stride : (x+1)*stride]
		for i := range reg {
			reg[i] = v
		}
	}
	return regs
}

// run evaluates the statement at n consecutive points, one instruction at a
// time over all of them. Register x is regs[x·stride : x·stride+n] (the
// constants' registers already filled to at least n); reads[l] holds the n
// value vectors read through dependence l and out receives the n results,
// both Width-interleaved. j is the first point and step the point-to-point
// step: only Coef reads them, walking a copy in jb.
func (st *statement) run(regs []float64, stride, n int, reads [][]float64, out []float64, j, step, jb ilin.Vec) {
	w := st.width
	operand := func(x int32) []float64 { // at least n long
		if x >= 0 {
			return regs[int(x)*stride:]
		}
		return reads[^x]
	}
	for _, in := range st.code {
		var d []float64
		switch {
		case in.op == opStore:
		case in.dst == outOperand:
			d = out[:n]
		default:
			d = regs[int(in.dst)*stride:][:n]
		}
		switch in.op {
		case opAdd:
			x, y := operand(in.a)[:len(d)], operand(in.b)[:len(d)] // equal lengths: no bounds checks below
			for i := range d {
				d[i] = x[i] + y[i]
			}
		case opSub:
			x, y := operand(in.a)[:len(d)], operand(in.b)[:len(d)]
			for i := range d {
				d[i] = x[i] - y[i]
			}
		case opMul:
			x, y := operand(in.a)[:len(d)], operand(in.b)[:len(d)]
			for i := range d {
				d[i] = x[i] * y[i]
			}
		case opDiv:
			x, y := operand(in.a)[:len(d)], operand(in.b)[:len(d)]
			for i := range d {
				d[i] = x[i] / y[i]
			}
		case opNeg:
			x := operand(in.a)[:len(d)]
			for i := range d {
				d[i] = -x[i]
			}
		case opMove:
			copy(d, operand(in.a))
		case opLoad:
			src := reads[in.a][int(in.b):]
			for i := range d {
				d[i] = src[i*w]
			}
		case opStore:
			x, dst := operand(in.a)[:n], out[int(in.b):]
			for i := range x {
				dst[i*w] = x[i]
			}
		case opCoef:
			f := st.coefs[in.a]
			copy(jb, j)
			for i := range d {
				d[i] = f(jb)
				for k := range jb {
					jb[k] += step[k]
				}
			}
		}
	}
}

// point evaluates the statement at the single point i of reads and out (laid
// out as for run), the same code on scalars: register x is regs[x], the
// constants' already filled.
// It is the length-1 form — what Kernel.Point runs, and what a row runs
// point by point where a point reads the one just before it.
func (st *statement) point(regs []float64, reads [][]float64, out []float64, i int, j ilin.Vec) {
	w := st.width
	val := func(x int32) float64 {
		if x >= 0 {
			return regs[x]
		}
		return reads[^x][i]
	}
	for _, in := range st.code {
		var v float64
		switch in.op {
		case opAdd:
			v = val(in.a) + val(in.b)
		case opSub:
			v = val(in.a) - val(in.b)
		case opMul:
			v = val(in.a) * val(in.b)
		case opDiv:
			v = val(in.a) / val(in.b)
		case opNeg:
			v = -val(in.a)
		case opMove:
			v = val(in.a)
		case opLoad:
			v = reads[in.a][i*w+int(in.b)]
		case opCoef:
			v = st.coefs[in.a](j)
		case opStore:
			out[i*w+int(in.b)] = val(in.a)
			continue
		}
		if in.dst == outOperand {
			out[i] = v
		} else {
			regs[in.dst] = v
		}
	}
}
