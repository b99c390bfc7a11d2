// Package apps defines the paper's three experiment workloads — Gauss
// Successive Over-Relaxation (§4.1), Jacobi (§4.2) and ADI integration
// (§4.3) — as loop nests with their dependence matrices, the skewing
// matrices that make them rectangularly tileable, their kernels for real
// execution, and the rectangular / non-rectangular tiling families the
// paper compares.
package apps

import (
	"fmt"
	"strings"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/rat"
)

// TilingFamily is one of an app's parameterized tiling transformations:
// given per-dimension factors (x, y, z) it produces the matrix H. Factors
// scale the tile extents so that 1/|det H| = x·y·z for every family of one
// app, which is what makes the paper's comparisons fair (equal tile size,
// communication volume and processor count).
type TilingFamily struct {
	Name string
	H    func(x, y, z int64) *ilin.RatMat
}

// App is a complete experiment workload.
type App struct {
	Name string
	// Nest is the (already skewed, where needed) loop nest.
	Nest *loopnest.Nest
	// Width is the number of values per iteration point (2 for ADI: X, B).
	Width int
	// Kernel and Initial drive real execution; InitialC is Initial in C (fills
	// out[0…Width) for the point j[0…n)), as Kernel.C is Kernel.
	Kernel   exec.Kernel
	Initial  exec.Initial
	InitialC string
	// MapDim is the paper's mapping dimension (0-based): SOR maps along
	// the third dimension, Jacobi and ADI along the first.
	MapDim int
	// Rect is the rectangular baseline family; NonRect the paper's
	// cone-derived alternatives (one for SOR/Jacobi, three for ADI).
	Rect    TilingFamily
	NonRect []TilingFamily
}

func rectH(x, y, z int64) *ilin.RatMat {
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, x))
	h.Set(1, 1, rat.New(1, y))
	h.Set(2, 2, rat.New(1, z))
	return h
}

// SOR builds the skewed SOR workload for an M×N×N space.
//
// Original loop (§4.1): A[t,i,j] = w/4·(A[t,i−1,j] + A[t,i,j−1] +
// A[t−1,i+1,j] + A[t−1,i,j+1]) + (1−w)·A[t−1,i,j], skewed by
// T = [[1,0,0],[1,1,0],[2,0,1]] so all dependence components become
// non-negative.
func SOR(m, n int64) (*App, error) {
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("apps: SOR needs M, N ≥ 1")
	}
	// Dependence columns (t, i, j): (0,1,0), (0,0,1), (1,−1,0), (1,0,−1),
	// (1,0,0) — the reads above, in order.
	deps := ilin.MatFromRows(
		[]int64{0, 0, 1, 1, 1},
		[]int64{1, 0, -1, 0, 0},
		[]int64{0, 1, 0, -1, 0},
	)
	orig, err := loopnest.Box([]string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{m, n, n}, deps)
	if err != nil {
		return nil, err
	}
	skew := ilin.MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{2, 0, 1})
	nest, err := orig.Skew(skew)
	if err != nil {
		return nil, err
	}
	const w = 1.2 // over-relaxation factor
	// out = w/4·(r0 + r1 + r2 + r3) + (1−w)·r4, summed left to right.
	kernel := exec.Statement(exec.Add(
		exec.Mul(exec.Const(w/4), addReads(exec.Read(0, 0), 1, 4)),
		exec.Mul(exec.Const(1-w), exec.Read(4, 0))))
	initial, initialC := skewedBoundary(skew)
	return &App{
		Name: "sor", Nest: nest, Width: 1, Kernel: kernel, Initial: initial, InitialC: initialC,
		MapDim: 2,
		Rect:   TilingFamily{Name: "rect", H: rectH},
		NonRect: []TilingFamily{{
			Name: "nr",
			H: func(x, y, z int64) *ilin.RatMat {
				h := ilin.NewRatMat(3, 3)
				h.Set(0, 0, rat.New(1, x))
				h.Set(1, 1, rat.New(1, y))
				h.Set(2, 0, rat.New(-1, z))
				h.Set(2, 2, rat.New(1, z))
				return h
			},
		}},
	}, nil
}

// Jacobi builds the skewed Jacobi workload for a T×I×J space (I = J = n).
//
// Original loop (§4.2): five-point average of the previous time step,
// skewed by T = [[1,0,0],[1,1,0],[1,0,1]]. The non-rectangular family
// needs an even y factor (P must be integral).
func Jacobi(tSteps, n int64) (*App, error) {
	if tSteps < 1 || n < 1 {
		return nil, fmt.Errorf("apps: Jacobi needs T, N ≥ 1")
	}
	// Dependence columns: (1,0,0), (1,1,0), (1,−1,0), (1,0,1), (1,0,−1).
	deps := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1},
		[]int64{0, 1, -1, 0, 0},
		[]int64{0, 0, 0, 1, -1},
	)
	orig, err := loopnest.Box([]string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{tSteps, n, n}, deps)
	if err != nil {
		return nil, err
	}
	skew := ilin.MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{1, 0, 1})
	nest, err := orig.Skew(skew)
	if err != nil {
		return nil, err
	}
	kernel := exec.Statement(exec.Mul(exec.Const(0.2), addReads(exec.Read(0, 0), 1, 5)))
	initial, initialC := skewedBoundary(skew)
	return &App{
		Name: "jacobi", Nest: nest, Width: 1, Kernel: kernel, Initial: initial, InitialC: initialC,
		MapDim: 0,
		Rect:   TilingFamily{Name: "rect", H: rectH},
		NonRect: []TilingFamily{{
			Name: "nr",
			H: func(x, y, z int64) *ilin.RatMat {
				h := ilin.NewRatMat(3, 3)
				h.Set(0, 0, rat.New(1, x))
				h.Set(0, 1, rat.New(-1, 2*x))
				h.Set(1, 1, rat.New(1, y))
				h.Set(2, 2, rat.New(1, z))
				return h
			},
		}},
	}, nil
}

// ADI builds the ADI integration workload for a T×N×N space (Table 3).
// No skewing is needed; the statement updates two arrays (X and B), so
// iteration values have width 2.
func ADI(tSteps, n int64) (*App, error) {
	if tSteps < 1 || n < 1 {
		return nil, fmt.Errorf("apps: ADI needs T, N ≥ 1")
	}
	// Dependence columns: (1,0,0), (1,1,0), (1,0,1).
	deps := ilin.MatFromRows(
		[]int64{1, 1, 1},
		[]int64{0, 1, 0},
		[]int64{0, 0, 1},
	)
	nest, err := loopnest.Box([]string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{tSteps, n, n}, deps)
	if err != nil {
		return nil, err
	}
	// prev, up and left are dependences 0, 1 and 2; slot 0 is X, slot 1 is B.
	a := exec.Coef(func(j ilin.Vec) float64 { return adiCoef(j[1], j[2]) }, "(0.01 + (double)((j[1]*13 + j[2]*7) % 8) / 100)")
	x := func(dep int) *exec.Expr { return exec.Read(dep, 0) }
	b := func(dep int) *exec.Expr { return exec.Read(dep, 1) }
	aa := exec.Mul(a, a)
	kernel := exec.Statement(
		// X = prev.X + left.X·a/left.B − up.X·a/up.B
		exec.Sub(exec.Add(x(0), exec.Div(exec.Mul(x(2), a), b(2))), exec.Div(exec.Mul(x(1), a), b(1))),
		// B = prev.B − a·a/left.B − a·a/up.B
		exec.Sub(exec.Sub(b(0), exec.Div(aa, b(2))), exec.Div(aa, b(1))),
	)
	initial := func(j ilin.Vec, out []float64) {
		out[0] = 1 + boundaryValue(j[1], j[2])
		out[1] = 2
	}
	mkNR := func(c1, c2 bool) func(x, y, z int64) *ilin.RatMat {
		return func(x, y, z int64) *ilin.RatMat {
			h := rectH(x, y, z)
			if c1 {
				h.Set(0, 1, rat.New(-1, x))
			}
			if c2 {
				h.Set(0, 2, rat.New(-1, x))
			}
			return h
		}
	}
	return &App{
		Name: "adi", Nest: nest, Width: 2, Kernel: kernel, Initial: initial,
		InitialC: "out[0] = 1.0 + (" + boundaryC("j[1]", "j[2]") + "); out[1] = 2.0;",
		MapDim:   0,
		Rect:     TilingFamily{Name: "rect", H: rectH},
		NonRect: []TilingFamily{
			{Name: "nr1", H: mkNR(true, false)},
			{Name: "nr2", H: mkNR(false, true)},
			{Name: "nr3", H: mkNR(true, true)},
		},
	}, nil
}

// addReads adds slot 0 of dependences from … to−1 to acc, left to right.
func addReads(acc *exec.Expr, from, to int) *exec.Expr {
	for l := from; l < to; l++ {
		acc = exec.Add(acc, exec.Read(l, 0))
	}
	return acc
}

// skewedBoundary is the boundary value of a skewed 3-D nest's original
// (t, i, j) point, and its C form. Only i and j feed it, so it evaluates those
// two rows of the (unimodular, exactly integer) inverse skew directly — no
// allocation, no shared buffer, safe for concurrent ranks.
func skewedBoundary(skew *ilin.Mat) (exec.Initial, string) {
	tinv := skew.Inverse().Int()
	ri, rj := tinv.Row(1), tinv.Row(2)
	return func(js ilin.Vec, out []float64) { out[0] = boundaryValue(ri.Dot(js), rj.Dot(js)) },
		"out[0] = " + boundaryC(dotC(ri), dotC(rj)) + ";"
}

// boundaryValue is a deterministic, smooth-ish boundary/initial condition;
// boundaryC is the same over the C expressions of i and j.
func boundaryValue(i, j int64) float64 {
	return 0.5 + float64((i*31+j*17)%23)/46
}

func boundaryC(i, j string) string {
	return fmt.Sprintf("0.5 + (double)(((%s)*31 + (%s)*17) %% 23) / 46", i, j)
}

// dotC is row·j in C, for a row of an inverse skew.
func dotC(row ilin.Vec) string {
	var terms []string
	for k, c := range row {
		if c != 0 {
			terms = append(terms, fmt.Sprintf("%d*j[%d]", c, k))
		}
	}
	return strings.Join(terms, " + ")
}

// adiCoef is the ADI coefficient array A[i,j] (the paper's input data);
// values stay small so B remains well away from zero over short runs.
func adiCoef(i, j int64) float64 {
	return 0.01 + float64((i*13+j*7)%8)/100
}

// Heat3D builds a four-dimensional workload (time × 3-D grid, 7-point
// stencil) — an extension beyond the paper's three benchmarks showing the
// framework is not specialized to depth 3. Skewed by the 4-D analogue of
// the Jacobi skew; the non-rectangular family skews the time row against
// the first space dimension (even y required, as for Jacobi).
func Heat3D(tSteps, n int64) (*App, error) {
	if tSteps < 1 || n < 1 {
		return nil, fmt.Errorf("apps: Heat3D needs T, N ≥ 1")
	}
	// Dependence columns: center + ±1 along each space axis at t−1.
	deps := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1, 1, 1},
		[]int64{0, 1, -1, 0, 0, 0, 0},
		[]int64{0, 0, 0, 1, -1, 0, 0},
		[]int64{0, 0, 0, 0, 0, 1, -1},
	)
	orig, err := loopnest.Box([]string{"t", "x", "y", "z"},
		[]int64{1, 1, 1, 1}, []int64{tSteps, n, n, n}, deps)
	if err != nil {
		return nil, err
	}
	skew := ilin.MatFromRows(
		[]int64{1, 0, 0, 0},
		[]int64{1, 1, 0, 0},
		[]int64{1, 0, 1, 0},
		[]int64{1, 0, 0, 1},
	)
	nest, err := orig.Skew(skew)
	if err != nil {
		return nil, err
	}
	// out = (0 + r0 + … + r6) / 7, summed left to right from zero.
	kernel := exec.Statement(exec.Div(addReads(exec.Const(0), 0, 7), exec.Const(7)))
	tinv := skew.Inverse().Int()
	rx, ry, rz := tinv.Row(1), tinv.Row(2), tinv.Row(3)
	initial := func(js ilin.Vec, out []float64) {
		out[0] = boundaryValue(rx.Dot(js)+rz.Dot(js), ry.Dot(js))
	}
	rect4 := func(x, y, z int64) *ilin.RatMat {
		// The fourth extent reuses z (the API carries three factors).
		h := ilin.NewRatMat(4, 4)
		h.Set(0, 0, rat.New(1, x))
		h.Set(1, 1, rat.New(1, y))
		h.Set(2, 2, rat.New(1, z))
		h.Set(3, 3, rat.New(1, z))
		return h
	}
	return &App{
		Name: "heat3d", Nest: nest, Width: 1, Kernel: kernel, Initial: initial,
		InitialC: "out[0] = " + boundaryC(dotC(rx)+" + "+dotC(rz), dotC(ry)) + ";",
		MapDim:   0,
		Rect:     TilingFamily{Name: "rect", H: rect4},
		NonRect: []TilingFamily{{
			Name: "nr",
			H: func(x, y, z int64) *ilin.RatMat {
				h := rect4(x, y, z)
				h.Set(0, 1, rat.New(-1, 2*x))
				return h
			},
		}},
	}, nil
}
