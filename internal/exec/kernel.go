package exec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"tilespace/internal/ilin"
)

// This file is the loop body F as data. The paper's generated code inlines F
// in the TTIS loop (§3.2); an interpreter gets the same effect from F as a
// statement — one expression tree per output slot over the dependence reads
// — lowered once to register code run an instruction at a time over a whole
// TTIS row, a width-1 sum of scaled folds as one fused instruction (sum).
// Every IEEE operation stays in the tree's order, so a row of length L
// computes bit for bit what L rows of length one do.

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
	opSum   // dst = the statement's fused sum
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
// from the value vectors read through each dependence, as a statement
// (Statement), which the executor evaluates a TTIS row at a time. The zero
// Kernel has none.
type Kernel struct {
	stmt *statement
}

// Statement is the loop body given as data: slots[s] computes slot s of the
// point's value vector, so the program's width is len(slots). Every slot is
// evaluated from the values read before any is stored.
func Statement(slots ...*Expr) Kernel {
	return Kernel{stmt: lower(slots)}
}

// IsZero reports whether the kernel carries no statement.
func (k Kernel) IsZero() bool { return k.stmt == nil }

// check reports whether the kernel fits a program of the given width over q
// dependences.
func (k Kernel) check(width, q int) error {
	st := k.stmt
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

// Row evaluates the kernel at the n consecutive points j, j+step, …: reads[l]
// holds the n value vectors read through dependence l and out receives the n
// results, Width values per point, as the executor evaluates a TTIS row
// (rowEval.row): n rows of one point bit for bit, if no read aliases an
// output.
func (k Kernel) Row(n int, j, step ilin.Vec, reads [][]float64, out []float64) {
	ev := newRowEval(k, len(out)/n, len(j), len(reads), n)
	copy(ev.reads, reads)
	copy(ev.j, j)
	ev.row(k, int64(n), math.MaxInt64, out, step)
}

// C prints the kernel as the C statement block the generated program inlines
// in its TTIS loop: one `out[s] = …;` per slot over the reads R<l>[s] (slot s
// read through dependence l) and the point j, every operation parenthesised
// in the executor's order, a shared node printed at each use, a constant as
// its shortest round-trip decimal and a Coef as its C form. Compiled with
// -ffp-contract=off it computes what Row computes, bit for bit. A non-finite
// constant has no C form.
func (k Kernel) C() (string, error) {
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

// statement is a lowered Statement: straight-line code over a register file
// whose registers [0, len(consts)) hold the constants and are never written,
// the rest temporaries. An operand x ≥ 0 names register x; at width 1 an
// operand x < 0 names dependence ^x read in place, and outOperand as a
// destination the output. At width > 1 reads are gathered into registers
// (opLoad) and every slot is scattered at the end (opStore), all loads
// before all stores.
type statement struct {
	slots   []*Expr // the trees, which C prints
	width   int
	ndeps   int // 1 + the highest dependence read
	nslots  int // 1 + the highest slot read
	consts  []float64
	nreg    int
	coefs   []func(j ilin.Vec) float64
	sum     sum // opSum's
	code    []instr
	onePass bool // the code is one loop whose every point reads before it writes
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
	st := lw.st
	f, leaves, fused := lw.fuse(slots[0]) // may add a constant: the folds' padding
	st.nreg = len(st.consts)
	switch {
	case fused:
		pad := lw.constant(math.Copysign(0, -1))
		for t := range leaves {
			f.x[t] = [foldMax]int32{pad, pad, pad, pad, pad, pad, pad, pad}
			for m, l := range leaves[t] {
				f.x[t][foldMax-len(leaves[t])+m] = lw.emit(l)
			}
		}
		st.sum = f
		st.code = append(st.code, instr{op: opSum, dst: outOperand})
	case st.width == 1:
		e := slots[0]
		x := lw.emit(e)
		if last := len(st.code) - 1; last >= 0 && st.code[last].dst == x && lw.uses[e] == 1 {
			st.code[last].dst = outOperand // the root writes the output in place
		} else {
			st.code = append(st.code, instr{op: opMove, dst: outOperand, a: x})
		}
	default:
		out := make([]int32, len(slots))
		for s, e := range slots {
			out[s] = lw.emit(e) // the count pass's use keeps the register held
		}
		for s, x := range out {
			st.code = append(st.code, instr{op: opStore, a: x, b: int32(s)})
		}
	}
	st.onePass = len(st.code) == 1 && st.code[0].op != opMove // a move copies a block
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
		lw.constant(e.val)
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
		x = lw.constant(e.val)
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

// constant returns the register of the constant v, assigned on first use.
func (lw *lowerer) constant(v float64) int32 {
	x, ok := lw.creg[math.Float64bits(v)]
	if !ok {
		x = int32(len(lw.st.consts))
		lw.creg[math.Float64bits(v)] = x
		lw.st.consts = append(lw.st.consts, v)
	}
	return x
}

const foldMax = 8 // the most operands a fused sum's fold reads

// sum is the fused instruction c0·F0, F0/c0 or c0·F0 + c1·F1 (− c·F1 is
// + (−c)·F1), a fold F = ((x0 + x1) + …) + x7 adding operands in place from
// the LDS, temporaries or constants. A fold of k operands starts with 8 − k
// operands −0, which leave every value as it is (−0 + x is x) and read
// nothing: a read of the point just written (SOR's) heads a chain of no
// more additions than the k operands make. An unscaled term is 1·F.
type sum struct {
	x        [2][foldMax]int32
	c        [2]float64
	div, two bool
}

// fold8 is ((x0 + x1) + …) + x7.
func fold8(x0, x1, x2, x3, x4, x5, x6, x7 float64) float64 {
	return ((((((x0 + x1) + x2) + x3) + x4) + x5) + x6) + x7
}

// fuse matches e, the root of a width-1 statement, as a sum: one term, or
// e's operands as two terms joined by e's ±, whichever absorbs more of the
// tree's operations; not a fold longer than foldMax, nor a sum absorbing
// fewer than two (a plain instruction's one). leaves[t] are term t's
// operands, which the caller emits after the padding.
func (lw *lowerer) fuse(e *Expr) (f sum, leaves [2][]*Expr, ok bool) {
	var ops int
	leaves[0], f.c[0], f.div, ops = lw.term(e, true)
	if leaves[0] != nil && (e.op == opAdd || e.op == opSub) {
		la, ca, da, na := lw.term(e.l, lw.uses[e.l] == 1)
		lb, cb, db, nb := lw.term(e.r, lw.uses[e.r] == 1)
		if e.op == opSub {
			cb = -cb
		}
		if la != nil && lb != nil && !da && !db && 1+na+nb > ops {
			f = sum{c: [2]float64{ca, cb}}
			leaves, ops = [2][]*Expr{la, lb}, 1+na+nb
		}
	}
	if leaves[0] == nil || ops < 2 || lw.st.width > 1 {
		return f, leaves, false
	}
	f.two = leaves[1] != nil
	lw.constant(math.Copysign(0, -1)) // the folds' padding: a register below the temporaries
	return f, leaves, true
}

// term matches n as c·F, F·c, F/c or F, with c a constant and F the fold of
// additions at n (absorbed only if open): F's operands (nil if more than
// foldMax), c (1 for F), whether it divides, and the operations absorbed.
func (lw *lowerer) term(n *Expr, open bool) (leaves []*Expr, c float64, div bool, ops int) {
	c = 1
	switch {
	case open && (n.op == opMul || n.op == opDiv) && n.r.op == opConst:
		c, div, n, ops = n.r.val, n.op == opDiv, n.l, 1
	case open && n.op == opMul && n.l.op == opConst:
		c, n, ops = n.l.val, n.r, 1
	}
	for open = open && lw.uses[n] == 1; open && n.op == opAdd; open = lw.uses[n] == 1 {
		leaves, n = append(leaves, n.r), n.l
	}
	if leaves = append(leaves, n); len(leaves) > foldMax {
		return nil, c, div, 0
	}
	slices.Reverse(leaves)
	return leaves, c, div, ops + len(leaves) - 1
}

// run evaluates the statement at n consecutive points, one instruction at a
// time over all of them. Register x is regs[x·stride : x·stride+n] (the
// constants' filled); reads[l] holds the n value vectors read through
// dependence l and out receives the n results, both Width-interleaved. Only
// Coef reads j (the first point) and step, walking a copy in jb (which may
// be j itself if step is empty).
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
		case opSum:
			st.sum.run(d, regs, stride, reads)
		case opCoef:
			f := st.coefs[in.a]
			copy(jb, j)
			for i := range d {
				d[i] = f(jb)
				for k := range step {
					jb[k] += step[k]
				}
			}
		}
	}
}

// run evaluates the sum over d in one pass, every point's reads before its
// write (the [:n] reslices drop the bounds checks). Every product is rounded
// explicitly, so that no target contracts it into a fused multiply-add.
func (f *sum) run(d, regs []float64, stride int, reads [][]float64) {
	n := len(d)
	operand := func(o int32) []float64 {
		if o >= 0 {
			return regs[int(o)*stride:]
		}
		return reads[^o]
	}
	x, c0 := &f.x[0], f.c[0]
	a0, a1, a2, a3, a4, a5, a6, a7 := operand(x[0])[:n], operand(x[1])[:n], operand(x[2])[:n], operand(x[3])[:n], operand(x[4])[:n], operand(x[5])[:n], operand(x[6])[:n], operand(x[7])[:n]
	switch {
	case f.div:
		for i := range d {
			d[i] = fold8(a0[i], a1[i], a2[i], a3[i], a4[i], a5[i], a6[i], a7[i]) / c0
		}
	case !f.two:
		for i := range d {
			d[i] = float64(c0 * fold8(a0[i], a1[i], a2[i], a3[i], a4[i], a5[i], a6[i], a7[i]))
		}
	default:
		y, c1 := &f.x[1], f.c[1]
		b0, b1, b2, b3, b4, b5, b6, b7 := operand(y[0])[:n], operand(y[1])[:n], operand(y[2])[:n], operand(y[3])[:n], operand(y[4])[:n], operand(y[5])[:n], operand(y[6])[:n], operand(y[7])[:n]
		for i := range d {
			d[i] = float64(c0*fold8(a0[i], a1[i], a2[i], a3[i], a4[i], a5[i], a6[i], a7[i])) +
				float64(c1*fold8(b0[i], b1[i], b2[i], b3[i], b4[i], b5[i], b6[i], b7[i]))
		}
	}
}
