package codegen

import (
	"fmt"
	"strings"

	"tilespace/internal/rat"
)

// kernelFns emits in_space, initial_value, the original dependence table,
// and the boundary-injection + compute loops for one tile.
func (g *Generator) kernelFns(w *writer) {
	w.blank()
	w.line("/* original dependence vectors d_l (columns of D) */")
	depRows := make([][]int64, g.ts.Nest.Q())
	for l := range depRows {
		depRows[l] = g.ts.Nest.Dep(l)
	}
	if len(depRows) > 0 {
		for _, line := range cTable("DEPS", depRows) {
			w.line("%s", line)
		}
	} else {
		w.line("static const long DEPS[1][NDIM] = {{0}};")
	}
	w.blank()
	w.line("/* in_space: does j satisfy every iteration-space inequality? */")
	w.open("static int in_space(const long j[NDIM])")
	for _, c := range g.ts.Nest.Space.Cons {
		l := c.Rhs.Den
		for _, x := range c.Coef {
			l = rat.Lcm64(l, x.Den)
		}
		terms := []string{}
		for k, x := range c.Coef {
			v := x.MulInt(l).Int()
			if v == 0 {
				continue
			}
			terms = append(terms, fmt.Sprintf("%d*j[%d]", v, k))
		}
		if len(terms) == 0 {
			continue
		}
		w.line("if (!(%s <= %d)) return 0;", strings.Join(terms, " + "), c.Rhs.MulInt(l).Int())
	}
	w.line("return 1;")
	w.close()
	w.blank()
	w.line("/* initial_value: boundary/initial data for points outside the space. */")
	w.open("static void initial_value(const long j[NDIM], double *out)")
	w.line("(void)j;")
	w.line("%s", g.opts.InitialStmt)
	w.close()
	w.blank()
	w.line("/* inject_boundary: place Initial values for reads that leave the space. */")
	w.open("static void inject_boundary(const long jS[NDIM], long t, double *LA)")
	g.emitZLoops(w, "jS", "", func() {
		w.line("long j[NDIM];")
		w.line("for (int k = 0; k < NDIM; k++) {")
		w.indent++
		w.line("j[k] = 0;")
		w.line("for (int l = 0; l < NDIM; l++) j[k] += P[k][l]*jS[l] + U[k][l]*zv[l];")
		w.indent--
		w.line("}")
		w.line("for (int l = 0; l < NDEPS; l++) {")
		w.indent++
		w.line("long src[NDIM];")
		w.line("for (int k = 0; k < NDIM; k++) src[k] = j[k] - DEPS[l][k];")
		w.line("if (in_space(src)) continue;")
		w.line("double tmp[WIDTH];")
		w.line("initial_value(src, tmp);")
		w.line("double *cell = &LA[map_read(jp, DP[l], t) * WIDTH];")
		w.line("for (int x = 0; x < WIDTH; x++) cell[x] = tmp[x];")
		w.indent--
		w.line("}")
	})
	w.close()
	w.blank()
	w.line("/* compute_tile: sweep the (boundary-clamped) TTIS lattice. */")
	w.open("static void compute_tile(const long jS[NDIM], long t, double *LA)")
	g.emitZLoops(w, "jS", "", func() {
		w.line("long j[NDIM];")
		w.line("for (int k = 0; k < NDIM; k++) {")
		w.indent++
		w.line("j[k] = 0;")
		w.line("for (int l = 0; l < NDIM; l++) j[k] += P[k][l]*jS[l] + U[k][l]*zv[l];")
		w.indent--
		w.line("}")
		w.line("(void)j;")
		for l := 0; l < g.ts.Nest.Q(); l++ {
			w.line("double *R%d = &LA[map_read(jp, DP[%d], t) * WIDTH];", l, l)
			w.line("(void)R%d;", l)
		}
		w.line("double *out = &LA[map_cell(jp, t) * WIDTH];")
		w.line("%s", g.opts.KernelStmt)
	})
	w.close()
}
