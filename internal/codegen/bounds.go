package codegen

import (
	"fmt"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// buildPermutedBounds mirrors tiling's combined system with tile variables
// reordered so the mapping dimension is innermost among the tile loops.
func (g *Generator) buildPermutedBounds() error {
	n := g.n
	t := g.ts.T
	pos := make([]int, n) // natural dim -> permuted position
	for p, dim := range g.perm {
		pos[dim] = p
	}
	sys := poly.NewSystem(2 * n)
	for _, c := range g.ts.Nest.Space.Cons {
		row := make(ilin.RatVec, 2*n)
		for i := range row {
			row[i] = rat.Zero
		}
		for dim := 0; dim < n; dim++ {
			row[pos[dim]] = c.Coef.Dot(t.P.Col(dim).Rat())
			row[n+dim] = c.Coef.Dot(t.U.Col(dim).Rat())
		}
		sys.Add(poly.Constraint{Coef: row, Rhs: c.Rhs})
	}
	for k := 0; k < n; k++ {
		lo := make(ilin.RatVec, 2*n)
		for i := range lo {
			lo[i] = rat.Zero
		}
		hi := lo.Clone()
		for l := 0; l <= k; l++ {
			lo[n+l] = rat.FromInt(-t.HT.At(k, l))
			hi[n+l] = rat.FromInt(t.HT.At(k, l))
		}
		sys.Add(poly.Constraint{Coef: lo, Rhs: rat.Zero})
		sys.Add(poly.Constraint{Coef: hi, Rhs: rat.FromInt(t.V[k] - 1)})
	}
	nb, err := poly.LoopBounds(sys)
	if err != nil {
		return fmt.Errorf("codegen: permuted bounds: %w", err)
	}
	g.nb = nb
	return nil
}

// tileVarBounds renders the (lower, upper) C expressions of permuted tile
// variable position p.
func (g *Generator) tileVarBounds(p int) (string, string) {
	return cLowerBound(g.nb.Vars[p], g.vars), cUpperBound(g.nb.Vars[p], g.vars)
}

func (g *Generator) boundsHelpers(w *writer) {
	w.blank()
	w.line("/* tile_valid: the paper's valid() — is jS enumerated by the tile loops? */")
	w.open("static int tile_valid(const long jS_in[NDIM])")
	w.line("long jS[NDIM];")
	w.line("for (int k = 0; k < NDIM; k++) jS[k] = jS_in[k];")
	for p := 0; p < g.n; p++ {
		lb, ub := g.tileVarBounds(p)
		w.line("if (jS[%d] < (%s) || jS[%d] > (%s)) return 0;", g.perm[p], lb, g.perm[p], ub)
	}
	w.line("return 1;")
	w.close()
	w.blank()
	w.line("/* find_pid: walk the processor mesh (tile loops minus the mapping dim)")
	w.line(" * counting cells until this rank's is reached. */")
	w.open("static int find_pid(int rank, long jS[NDIM])")
	w.line("int count = 0;")
	for p := 0; p < g.n-1; p++ {
		lb, ub := g.tileVarBounds(p)
		w.open("for (jS[%d] = %s; jS[%d] <= (%s); jS[%d]++)", g.perm[p], lb, g.perm[p], ub, g.perm[p])
	}
	w.line("if (count++ == rank) return 1;")
	for p := 0; p < g.n-1; p++ {
		w.close()
	}
	w.line("return 0;")
	w.close()
	w.blank()
	w.line("/* rank_of_pid: inverse of find_pid (linearized mesh rank). */")
	w.open("static int rank_of_pid(const long pid[NDIM])")
	w.line("long jS[NDIM];")
	w.line("int count = 0;")
	for p := 0; p < g.n-1; p++ {
		lb, ub := g.tileVarBounds(p)
		w.open("for (jS[%d] = %s; jS[%d] <= (%s); jS[%d]++)", g.perm[p], lb, g.perm[p], ub, g.perm[p])
	}
	w.line("{")
	w.indent++
	w.line("int same = 1;")
	w.line("for (int k = 0; k < NDIM; k++) if (k != MAPDIM && jS[k] != pid[k]) same = 0;")
	w.line("if (same) return count;")
	w.line("count++;")
	w.indent--
	w.line("}")
	for p := 0; p < g.n-1; p++ {
		w.close()
	}
	w.line("return -1;")
	w.close()
	w.blank()
	lbm, ubm := g.tileVarBounds(g.n - 1)
	w.line("/* chain_bounds: this processor's first and last tile along the mapping dim. */")
	w.open("static void chain_bounds(const long jS_in[NDIM], long *lo, long *hi)")
	w.line("long jS[NDIM];")
	w.line("for (int k = 0; k < NDIM; k++) jS[k] = jS_in[k];")
	w.line("*lo = %s;", lbm)
	w.line("*hi = %s;", ubm)
	w.close()
}

// cAffine renders an affine bound as an integer C expression under ceild
// (lower bounds) or floord (upper bounds): the rational expression
// Σ (p_i/q_i)·x_i + c is scaled by the lcm L of all denominators and
// becomes {ceild,floord}(Σ a_i·x_i + c', L).
func cAffine(a poly.Affine, vars []string, ceil bool) string {
	l := a.Const.Den
	for _, c := range a.Coef {
		l = rat.Lcm64(l, c.Den)
	}
	if l == 0 {
		l = 1
	}
	terms := []string{}
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		coef := c.MulInt(l).Int()
		switch coef {
		case 1:
			terms = append(terms, vars[i])
		case -1:
			terms = append(terms, "-"+vars[i])
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", coef, vars[i]))
		}
	}
	if cst := a.Const.MulInt(l).Int(); cst != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", cst))
	}
	expr := strings.Join(terms, " + ")
	expr = strings.ReplaceAll(expr, "+ -", "- ")
	if l == 1 {
		return expr
	}
	if ceil {
		return fmt.Sprintf("ceild(%s, %d)", expr, l)
	}
	return fmt.Sprintf("floord(%s, %d)", expr, l)
}

// cLowerBound renders max(⌈L_1⌉, …) for a variable's lower bounds.
func cLowerBound(vb poly.VarBounds, vars []string) string {
	parts := make([]string, len(vb.Lower))
	for i, a := range vb.Lower {
		parts[i] = cAffine(a, vars, true)
	}
	return nestCalls("ts_max", parts)
}

// cUpperBound renders min(⌊U_1⌋, …) for a variable's upper bounds.
func cUpperBound(vb poly.VarBounds, vars []string) string {
	parts := make([]string, len(vb.Upper))
	for i, a := range vb.Upper {
		parts[i] = cAffine(a, vars, false)
	}
	return nestCalls("ts_min", parts)
}

// nestCalls folds ["a","b","c"] into "ts_max(a, ts_max(b, c))".
func nestCalls(fn string, parts []string) string {
	switch len(parts) {
	case 0:
		return "0"
	case 1:
		return parts[0]
	default:
		return fmt.Sprintf("%s(%s, %s)", fn, parts[0], nestCalls(fn, parts[1:]))
	}
}
