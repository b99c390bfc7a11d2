package frontend

import (
	"fmt"
	"strconv"
	"strings"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// Program is a fully parsed loop-nest program.
type Program struct {
	// Nest is the iteration space and dependence matrix (after the
	// optional skew directive has been applied).
	Nest *loopnest.Nest
	// Arrays lists the assigned arrays in statement order; Width ==
	// len(Arrays) (the paper's multiple-statements-on-multiple-arrays
	// form maps each array to one slot of the iteration value vector).
	Arrays []string
	// Width is the number of values per iteration point.
	Width int
	// Kernel evaluates all statements for the Go executor.
	Kernel exec.Kernel
	// KernelC is Kernel printed as C (exec.Kernel.C): the statement block
	// codegen.Options.KernelStmt takes.
	KernelC string
	// Tiling, when the source carried a `tile` directive, holds the rows
	// of H as parsed rationals (nil otherwise).
	Tiling *ilin.RatMat
	// MapDim is the 0-based mapping dimension from the `map` directive,
	// or -1 when absent.
	MapDim int
	// Params echoes the bound `let` parameters.
	Params map[string]int64
}

type loopLevel struct {
	name   string
	lo, hi expr
}

type stmt struct {
	array string
	slot  int
	rhs   expr
}

type parser struct {
	params   map[string]int64
	loops    []loopLevel
	varIdx   map[string]int
	arrays   []string
	arrayIdx map[string]int
	assigned map[string]bool
	lhsLine  int
	stmts    []stmt
	deps     []ilin.Vec
	skew     *ilin.Mat
	tiling   *ilin.RatMat
	mapDim   int
}

// Parse reads a loop-nest program from source text.
func Parse(src string) (*Program, error) {
	p := &parser{params: map[string]int64{}, varIdx: map[string]int{}, arrayIdx: map[string]int{}, assigned: map[string]bool{}, mapDim: -1}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks, err := lexLine(line, lineNo+1)
		if err != nil {
			return nil, err
		}
		t := &tokens{toks: toks, line: lineNo + 1}
		if t.atEOF() {
			continue
		}
		head := t.peek()
		switch {
		case head.kind == tokIdent && head.text == "let":
			err = p.parseLet(t)
		case head.kind == tokIdent && head.text == "for":
			err = p.parseFor(t)
		case head.kind == tokIdent && head.text == "skew":
			err = p.parseSkew(t, line)
		case head.kind == tokIdent && head.text == "tile":
			err = p.parseTile(line, lineNo+1)
		case head.kind == tokIdent && head.text == "map":
			err = p.parseMap(t)
		default:
			err = p.parseStatement(t)
		}
		if err != nil {
			return nil, err
		}
	}
	return p.finish()
}

func (p *parser) parseLet(t *tokens) error {
	t.next() // 'let'
	name := t.next()
	if name.kind != tokIdent {
		return fmt.Errorf("line %d: let needs a name", t.line)
	}
	if err := t.expect("="); err != nil {
		return err
	}
	neg := t.accept("-")
	num := t.next()
	if num.kind != tokNumber {
		return fmt.Errorf("line %d: let %s needs an integer", t.line, name.text)
	}
	v, err := strconv.ParseInt(num.text, 10, 64)
	if err != nil {
		return fmt.Errorf("line %d: bad integer %q", t.line, num.text)
	}
	if neg {
		v = -v
	}
	p.params[name.text] = v
	return nil
}

func (p *parser) parseFor(t *tokens) error {
	if len(p.stmts) > 0 {
		return fmt.Errorf("line %d: loop after a statement (the nest must be perfect)", t.line)
	}
	t.next() // 'for'
	name := t.next()
	if name.kind != tokIdent {
		return fmt.Errorf("line %d: for needs a variable", t.line)
	}
	if _, dup := p.varIdx[name.text]; dup {
		return fmt.Errorf("line %d: duplicate loop variable %q", t.line, name.text)
	}
	if _, isParam := p.params[name.text]; isParam {
		return fmt.Errorf("line %d: %q is already a parameter", t.line, name.text)
	}
	if err := t.expect("="); err != nil {
		return err
	}
	lo, err := parseExpr(t, nil)
	if err != nil {
		return err
	}
	if t.peek().kind != tokDots {
		return fmt.Errorf("line %d: expected '..' in loop range", t.line)
	}
	t.next()
	hi, err := parseExpr(t, nil)
	if err != nil {
		return err
	}
	if !t.atEOF() {
		return fmt.Errorf("line %d: trailing tokens after loop range", t.line)
	}
	p.varIdx[name.text] = len(p.loops)
	p.loops = append(p.loops, loopLevel{name: name.text, lo: lo, hi: hi})
	return nil
}

// parseStatement handles "ARRAY[vars] = EXPR". Multiple statements on
// distinct arrays are allowed (the paper's multi-array form); each array
// becomes one slot of the iteration value vector, single assignment per
// array.
func (p *parser) parseStatement(t *tokens) error {
	if len(p.loops) == 0 {
		return fmt.Errorf("line %d: statement before any loop", t.line)
	}
	arr := t.next()
	if arr.kind != tokIdent {
		return fmt.Errorf("line %d: expected array assignment", t.line)
	}
	if p.assigned[arr.text] {
		return fmt.Errorf("line %d: array %q assigned twice (single assignment per array)", t.line, arr.text)
	}
	p.assigned[arr.text] = true
	if _, known := p.arrayIdx[arr.text]; !known {
		p.arrayIdx[arr.text] = len(p.arrays)
		p.arrays = append(p.arrays, arr.text)
	}
	p.lhsLine = t.line
	if err := t.expect("["); err != nil {
		return err
	}
	for k := 0; k < len(p.loops); k++ {
		v := t.next()
		if v.kind != tokIdent || v.text != p.loops[k].name {
			return fmt.Errorf("line %d: write reference must be %s[%s] (the identity f_w)", t.line, arr.text, p.loopVarList())
		}
		if k < len(p.loops)-1 {
			if err := t.expect(","); err != nil {
				return err
			}
		}
	}
	if err := t.expect("]"); err != nil {
		return err
	}
	if err := t.expect("="); err != nil {
		return err
	}
	rhs, err := parseExpr(t, p.resolveRef)
	if err != nil {
		return err
	}
	if !t.atEOF() {
		return fmt.Errorf("line %d: trailing tokens after statement", t.line)
	}
	p.stmts = append(p.stmts, stmt{array: arr.text, slot: p.arrayIdx[arr.text], rhs: rhs})
	return nil
}

func (p *parser) loopVarList() string {
	names := make([]string, len(p.loops))
	for i, l := range p.loops {
		names[i] = l.name
	}
	return strings.Join(names, ",")
}

// resolveRef turns A[t-1, i+1, j] into a refExpr with dependence vector
// (1, -1, 0) and the array's value slot, deduplicating identical
// dependence vectors across arrays (all arrays of a point travel
// together).
func (p *parser) resolveRef(array string, indices []expr) (expr, error) {
	slot, known := p.arrayIdx[array]
	if !known {
		// Reading an array before (or without) its assignment: reserve a
		// slot — its statement must follow, checked in finish().
		slot = len(p.arrays)
		p.arrayIdx[array] = slot
		p.arrays = append(p.arrays, array)
	}
	n := len(p.loops)
	if len(indices) != n {
		return nil, fmt.Errorf("line %d: %s reference has %d indices, nest depth is %d", p.lhsLine, array, len(indices), n)
	}
	d := make(ilin.Vec, n)
	offs := make(ilin.Vec, n)
	for k, idx := range indices {
		coef, c, err := affineOf(idx, p.varIdx, p.params, n)
		if err != nil {
			return nil, fmt.Errorf("line %d: index %d of %s: %v", p.lhsLine, k+1, array, err)
		}
		// Must be var_k + const (uniform dependence).
		for l := 0; l < n; l++ {
			want := rat.Zero
			if l == k {
				want = rat.One
			}
			if !coef[l].Equal(want) {
				return nil, fmt.Errorf("line %d: index %d of %s must be %s+const (uniform dependencies)", p.lhsLine, k+1, array, p.loops[k].name)
			}
		}
		if !c.IsInt() {
			return nil, fmt.Errorf("line %d: index offset %v is not an integer", p.lhsLine, c)
		}
		offs[k] = c.Int()
		d[k] = -c.Int() // reads A[j - d]
	}
	for i, have := range p.deps {
		if have.Equal(d) {
			return &refExpr{dep: i, slot: slot, offsets: offs}, nil
		}
	}
	p.deps = append(p.deps, d)
	return &refExpr{dep: len(p.deps) - 1, slot: slot, offsets: offs}, nil
}

func (p *parser) parseSkew(t *tokens, line string) error {
	rows, err := parseIntRows(strings.TrimSpace(strings.TrimPrefix(line, "skew")), t.line)
	if err != nil {
		return err
	}
	p.skew = ilin.MatFromRows(rows...)
	return nil
}

func (p *parser) parseTile(line string, lineNo int) error {
	body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "tile"))
	var rows [][]string
	for _, rowText := range splitRows(body) {
		fields := strings.Fields(rowText)
		if len(fields) == 0 {
			continue
		}
		rows = append(rows, fields)
	}
	if len(rows) == 0 {
		return fmt.Errorf("line %d: empty tile directive", lineNo)
	}
	h, err := ilin.ParseRatMat(rows)
	if err != nil {
		return fmt.Errorf("line %d: tile matrix: %v", lineNo, err)
	}
	p.tiling = h
	return nil
}

// splitRows splits "a b c ; d e f" or "a b c / d e f" into row strings.
// Rationals like 1/8 contain '/' with no surrounding spaces, so rows are
// separated by '/' only when it stands alone (surrounded by spaces) — or
// by ';'.
func splitRows(s string) []string {
	s = strings.ReplaceAll(s, ";", " ; ")
	fields := strings.Fields(s)
	var rows []string
	var cur []string
	for _, f := range fields {
		if f == ";" || f == "/" {
			if len(cur) > 0 {
				rows = append(rows, strings.Join(cur, " "))
				cur = nil
			}
			continue
		}
		cur = append(cur, f)
	}
	if len(cur) > 0 {
		rows = append(rows, strings.Join(cur, " "))
	}
	return rows
}

func parseIntRows(body string, lineNo int) ([][]int64, error) {
	var rows [][]int64
	for _, rowText := range splitRows(body) {
		var row []int64
		for _, f := range strings.Fields(rowText) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad integer %q", lineNo, f)
			}
			row = append(row, v)
		}
		if len(row) > 0 {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("line %d: empty matrix directive", lineNo)
	}
	width := len(rows[0])
	for _, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("line %d: ragged matrix directive", lineNo)
		}
	}
	return rows, nil
}

func (p *parser) parseMap(t *tokens) error {
	t.next() // 'map'
	num := t.next()
	if num.kind != tokNumber {
		return fmt.Errorf("line %d: map needs a dimension number", t.line)
	}
	v, err := strconv.ParseInt(num.text, 10, 64)
	if err != nil || v < 1 {
		return fmt.Errorf("line %d: map needs a 1-based dimension", t.line)
	}
	p.mapDim = int(v) - 1
	return nil
}

// finish assembles and validates the Program.
func (p *parser) finish() (*Program, error) {
	n := len(p.loops)
	if n == 0 {
		return nil, fmt.Errorf("frontend: no loops found")
	}
	if len(p.stmts) == 0 {
		return nil, fmt.Errorf("frontend: no assignment statement found")
	}
	for _, a := range p.arrays {
		if !p.assigned[a] {
			return nil, fmt.Errorf("frontend: array %q is read but never assigned", a)
		}
	}
	sys := poly.NewSystem(n)
	for k, l := range p.loops {
		loCoef, loConst, err := affineOf(l.lo, p.varIdx, p.params, n)
		if err != nil {
			return nil, fmt.Errorf("frontend: lower bound of %s: %v", l.name, err)
		}
		hiCoef, hiConst, err := affineOf(l.hi, p.varIdx, p.params, n)
		if err != nil {
			return nil, fmt.Errorf("frontend: upper bound of %s: %v", l.name, err)
		}
		for i := k; i < n; i++ {
			if !loCoef[i].IsZero() || !hiCoef[i].IsZero() {
				return nil, fmt.Errorf("frontend: bounds of %s may only use outer variables", l.name)
			}
		}
		// var_k ≥ loCoef·j + loConst  →  loCoef·j − var_k ≤ −loConst
		lo := loCoef.Clone()
		lo[k] = lo[k].Sub(rat.One)
		sys.Add(poly.Constraint{Coef: lo, Rhs: loConst.Neg()})
		// var_k ≤ hiCoef·j + hiConst
		hi := hiCoef.Scale(rat.FromInt(-1))
		hi[k] = hi[k].Add(rat.One)
		sys.Add(poly.Constraint{Coef: hi, Rhs: hiConst})
	}
	names := make([]string, n)
	for i, l := range p.loops {
		names[i] = l.name
	}
	var depMat *ilin.Mat
	if len(p.deps) > 0 {
		depMat = ilin.NewMat(n, len(p.deps))
		for i, d := range p.deps {
			depMat.SetCol(i, d)
		}
	}
	nest, err := loopnest.New(names, sys, depMat)
	if err != nil {
		return nil, fmt.Errorf("frontend: %v", err)
	}
	if p.skew != nil {
		if nest, err = nest.Skew(p.skew); err != nil {
			return nil, fmt.Errorf("frontend: skew: %v", err)
		}
	}
	// Every array is assigned exactly once, so the statements are one tree
	// per slot of the value vector.
	slots := make([]*exec.Expr, len(p.arrays))
	for _, st := range p.stmts {
		slots[st.slot] = lowerExpr(st.rhs)
	}
	kernel := exec.Statement(slots...)
	kernelC, err := kernel.C()
	if err != nil {
		return nil, fmt.Errorf("frontend: %v", err)
	}
	return &Program{
		Nest:    nest,
		Arrays:  append([]string(nil), p.arrays...),
		Width:   len(p.arrays),
		Kernel:  kernel,
		KernelC: kernelC,
		Tiling:  p.tiling,
		MapDim:  p.mapDim,
		Params:  p.params,
	}, nil
}
