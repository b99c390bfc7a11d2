package frontend

import (
	"fmt"
	"strconv"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// expr is the AST of a parsed arithmetic expression.
type expr interface{ String() string }

type numExpr struct {
	text string // the literal as written
	val  float64
}

func (e *numExpr) String() string { return e.text }

// varExpr is a loop variable or parameter occurrence (bounds only).
type varExpr struct{ name string }

func (e *varExpr) String() string { return e.name }

// refExpr is an array read in the statement, resolved to a dependence
// index and an array slot (multi-array statements carry one value per
// array at each iteration point).
type refExpr struct {
	dep     int      // index into the program's dependence list
	slot    int      // index of the referenced array in the value vector
	offsets ilin.Vec // index offsets (var_k + offsets[k])
}

func (e *refExpr) String() string { return fmt.Sprintf("ref#%d.%d", e.dep, e.slot) }

type binExpr struct {
	op   byte // + - * /
	l, r expr
}

func (e *binExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", e.l, e.op, e.r)
}

type negExpr struct{ x expr }

func (e *negExpr) String() string { return fmt.Sprintf("(-%s)", e.x) }

// parseExpr parses with standard precedence: (+,-) < (*,/) < unary.
// refs, when non-nil, enables ARRAY[...] references (statement context)
// and resolves them through the resolver callback.
type refResolver func(array string, indices []expr) (expr, error)

func parseExpr(t *tokens, refs refResolver) (expr, error) {
	return parseAdd(t, refs)
}

func parseAdd(t *tokens, refs refResolver) (expr, error) {
	l, err := parseMul(t, refs)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case t.accept("+"):
			r, err := parseMul(t, refs)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '+', l: l, r: r}
		case t.accept("-"):
			r, err := parseMul(t, refs)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '-', l: l, r: r}
		default:
			return l, nil
		}
	}
}

func parseMul(t *tokens, refs refResolver) (expr, error) {
	l, err := parseUnary(t, refs)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case t.accept("*"):
			r, err := parseUnary(t, refs)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '*', l: l, r: r}
		case t.accept("/"):
			r, err := parseUnary(t, refs)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '/', l: l, r: r}
		default:
			return l, nil
		}
	}
}

func parseUnary(t *tokens, refs refResolver) (expr, error) {
	if t.accept("-") {
		x, err := parseUnary(t, refs)
		if err != nil {
			return nil, err
		}
		return &negExpr{x: x}, nil
	}
	return parseAtom(t, refs)
}

func parseAtom(t *tokens, refs refResolver) (expr, error) {
	tk := t.peek()
	switch tk.kind {
	case tokNumber:
		t.next()
		v, err := strconv.ParseFloat(tk.text, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad number %q", t.line, tk.text)
		}
		return &numExpr{text: tk.text, val: v}, nil
	case tokIdent:
		t.next()
		if t.peek().kind == tokPunct && t.peek().text == "[" {
			if refs == nil {
				return nil, fmt.Errorf("line %d: array reference %q not allowed here", t.line, tk.text)
			}
			t.next() // consume '['
			var indices []expr
			for {
				idx, err := parseExpr(t, nil)
				if err != nil {
					return nil, err
				}
				indices = append(indices, idx)
				if t.accept(",") {
					continue
				}
				if err := t.expect("]"); err != nil {
					return nil, err
				}
				break
			}
			return refs(tk.text, indices)
		}
		if refs != nil {
			// A statement computes on values; a loop variable or parameter
			// has none, and neither the kernel nor the C rendering has a
			// case for one.
			return nil, fmt.Errorf("line %d: name %q is not a value in a statement (use an array reference or a number)", t.line, tk.text)
		}
		return &varExpr{name: tk.text}, nil
	case tokPunct:
		if tk.text == "(" {
			t.next()
			inner, err := parseExpr(t, refs)
			if err != nil {
				return nil, err
			}
			if err := t.expect(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	if tk.kind == tokEOF {
		return nil, fmt.Errorf("line %d: unexpected end of line (expression expected)", t.line)
	}
	return nil, fmt.Errorf("line %d: unexpected token %q", t.line, tk.text)
}

// affineOf reduces a bounds expression to Σ coef_k·var_k + const with
// exact rational arithmetic. vars maps loop-variable names to indices;
// params supplies bound integer parameters.
func affineOf(e expr, vars map[string]int, params map[string]int64, n int) (ilin.RatVec, rat.Rat, error) {
	zero := make(ilin.RatVec, n)
	for i := range zero {
		zero[i] = rat.Zero
	}
	switch x := e.(type) {
	case *numExpr:
		// Bounds must be integer-valued expressions.
		iv, err := strconv.ParseInt(x.text, 10, 64)
		if err != nil {
			return nil, rat.Zero, fmt.Errorf("bound literal %q must be an integer", x.text)
		}
		return zero, rat.FromInt(iv), nil
	case *varExpr:
		if p, ok := params[x.name]; ok {
			return zero, rat.FromInt(p), nil
		}
		if k, ok := vars[x.name]; ok {
			coef := zero.Clone()
			coef[k] = rat.One
			return coef, rat.Zero, nil
		}
		return nil, rat.Zero, fmt.Errorf("unknown name %q in bound", x.name)
	case *negExpr:
		c, k, err := affineOf(x.x, vars, params, n)
		if err != nil {
			return nil, rat.Zero, err
		}
		return c.Scale(rat.FromInt(-1)), k.Neg(), nil
	case *binExpr:
		lc, lk, err := affineOf(x.l, vars, params, n)
		if err != nil {
			return nil, rat.Zero, err
		}
		rc, rk, err := affineOf(x.r, vars, params, n)
		if err != nil {
			return nil, rat.Zero, err
		}
		switch x.op {
		case '+':
			return lc.Add(rc), lk.Add(rk), nil
		case '-':
			return lc.Sub(rc), lk.Sub(rk), nil
		case '*':
			if lc.IsZero() {
				return rc.Scale(lk), rk.Mul(lk), nil
			}
			if rc.IsZero() {
				return lc.Scale(rk), lk.Mul(rk), nil
			}
			return nil, rat.Zero, fmt.Errorf("non-affine bound: product of two variable expressions")
		case '/':
			if !rc.IsZero() || rk.IsZero() {
				return nil, rat.Zero, fmt.Errorf("non-affine bound: division by a variable expression")
			}
			return lc.Scale(rk.Inv()), lk.Div(rk), nil
		}
	}
	return nil, rat.Zero, fmt.Errorf("unsupported bound expression %v", e)
}

// lowerExpr turns a statement expression into the executor's expression
// tree: the same operations in the same association. The row-wise executor
// and the per-point references evaluate that tree, and the generated C is
// printed from it (exec.Kernel.C), so all three compute one value.
func lowerExpr(e expr) *exec.Expr {
	switch x := e.(type) {
	case *numExpr:
		return exec.Const(x.val)
	case *refExpr:
		return exec.Read(x.dep, x.slot)
	case *negExpr:
		return exec.Neg(lowerExpr(x.x))
	case *binExpr:
		l, r := lowerExpr(x.l), lowerExpr(x.r)
		switch x.op {
		case '+':
			return exec.Add(l, r)
		case '-':
			return exec.Sub(l, r)
		case '*':
			return exec.Mul(l, r)
		case '/':
			return exec.Div(l, r)
		}
	}
	panic(fmt.Sprintf("frontend: unlowerable expression %v", e))
}
