// Package loopnest models the paper's source-program domain (§2.1):
// perfectly nested FOR loops over a general convex, parameterized iteration
// space, with uniform constant dependencies expressed as a dependence
// matrix D, and a single-assignment write reference.
//
// A Nest is pure structure — the actual computation (the loop body F) is
// attached later by the execution backend, so that one analysed nest can be
// compiled, scheduled and simulated without any floating-point code, and
// executed with real arrays when verification is wanted.
package loopnest

import (
	"fmt"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/poly"
)

// Nest is a perfectly nested loop with uniform dependencies.
type Nest struct {
	// N is the nesting depth (the paper's n).
	N int
	// Names are the loop variable names, e.g. ["t", "i", "j"]; purely
	// cosmetic, used by the code generator and diagnostics.
	Names []string
	// Space is the iteration space J^n = {j : A·j ≤ b}, a bounded convex
	// polyhedron.
	Space *poly.System
	// Deps is the n×q dependence matrix D; column l is dependence vector
	// d_l, meaning iteration j reads the value written by iteration j−d_l.
	Deps *ilin.Mat

	// bounds is the loop nest of Space, kept from the Fourier–Motzkin pass
	// that validated the nest so that no scan has to repeat it.
	bounds *poly.NestBounds
}

// New constructs and validates a nest. Errors cover: arity mismatches,
// unbounded or empty iteration spaces, and dependence vectors that are not
// lexicographically positive (the program would not be sequentially
// computable).
func New(names []string, space *poly.System, deps *ilin.Mat) (*Nest, error) {
	n := space.NVars
	if len(names) == 0 {
		names = defaultNames(n)
	}
	if len(names) != n {
		return nil, fmt.Errorf("loopnest: %d names for %d loop variables", len(names), n)
	}
	if deps == nil {
		deps = ilin.NewMat(n, 0)
	}
	if deps.Rows != n {
		return nil, fmt.Errorf("loopnest: dependence matrix has %d rows, nest depth is %d", deps.Rows, n)
	}
	nest := &Nest{N: n, Names: append([]string(nil), names...), Space: space.Clone(), Deps: deps.Clone()}
	var err error
	if nest.bounds, err = nest.validate(); err != nil {
		return nil, err
	}
	return nest, nil
}

func defaultNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("j%d", i+1)
	}
	return names
}

// validate checks the structural invariants and returns the loop bounds the
// check of the iteration space computed.
func (nest *Nest) validate() (*poly.NestBounds, error) {
	if nest.Space.NVars != nest.N {
		return nil, fmt.Errorf("loopnest: space arity %d != depth %d", nest.Space.NVars, nest.N)
	}
	nb, err := poly.LoopBounds(nest.Space)
	if err != nil {
		return nil, fmt.Errorf("loopnest: iteration space: %w", err)
	}
	for l := 0; l < nest.Deps.Cols; l++ {
		d := nest.Deps.Col(l)
		if !d.LexPositive() {
			return nil, fmt.Errorf("loopnest: dependence d%d = %v is not lexicographically positive", l+1, d)
		}
	}
	return nb, nil
}

// Q returns the number of dependence vectors.
func (nest *Nest) Q() int { return nest.Deps.Cols }

// Dep returns dependence vector l (0-based column of D).
func (nest *Nest) Dep(l int) ilin.Vec { return nest.Deps.Col(l) }

// Bounds returns the nested loop bounds of the iteration space: the ones
// New computed while validating it (shared, read-only), or a fresh
// Fourier–Motzkin pass for a Nest assembled by hand.
func (nest *Nest) Bounds() (*poly.NestBounds, error) {
	if nest.bounds != nil {
		return nest.bounds, nil
	}
	return poly.LoopBounds(nest.Space)
}

// Size returns the number of iterations |J^n|.
func (nest *Nest) Size() (int64, error) {
	nb, err := nest.Bounds()
	if err != nil {
		return 0, err
	}
	return nb.Count(), nil
}

// BoundingBox returns the integer bounding box of the iteration space.
func (nest *Nest) BoundingBox() (lo, hi ilin.Vec, err error) {
	return poly.BoundingBox(nest.Space)
}

// Skew applies a unimodular transformation T to the nest: the new iteration
// space is {T·j : j ∈ J^n} and the new dependence matrix is T·D. SOR and
// Jacobi both require skewing before they admit a rectangular tiling (§4.1,
// §4.2). Returns an error if T is not unimodular (integer points would not
// map bijectively) or if any transformed dependence loses lexicographic
// positivity.
func (nest *Nest) Skew(t *ilin.Mat) (*Nest, error) {
	if t.Rows != nest.N || t.Cols != nest.N {
		return nil, fmt.Errorf("loopnest: skew matrix is %dx%d, need %dx%d", t.Rows, t.Cols, nest.N, nest.N)
	}
	if !t.IsUnimodular() {
		return nil, fmt.Errorf("loopnest: skew matrix must be unimodular, det = %d", t.Det())
	}
	tInv := t.Inverse()
	// A·j ≤ b with j = T⁻¹·j' becomes (A·T⁻¹)·j' ≤ b.
	newSpace := poly.NewSystem(nest.N)
	for _, c := range nest.Space.Cons {
		row := make(ilin.RatVec, nest.N)
		for j := 0; j < nest.N; j++ {
			row[j] = c.Coef.Dot(tInv.Col(j))
		}
		newSpace.Add(poly.Constraint{Coef: row, Rhs: c.Rhs})
	}
	newDeps := t.Mul(nest.Deps)
	names := make([]string, nest.N)
	for i, nm := range nest.Names {
		names[i] = nm + "'"
	}
	return New(names, newSpace, newDeps)
}

// String renders a summary of the nest.
func (nest *Nest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nest depth %d, vars %s, %d dependencies\n", nest.N, strings.Join(nest.Names, ","), nest.Q())
	fmt.Fprintf(&b, "space:\n%s\n", nest.Space)
	fmt.Fprintf(&b, "D =\n%s", nest.Deps)
	return b.String()
}

// Box is a convenience constructor for the common rectangular iteration
// space lo_k ≤ j_k ≤ hi_k.
func Box(names []string, lo, hi []int64, deps *ilin.Mat) (*Nest, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("loopnest: Box bounds length mismatch")
	}
	s := poly.NewSystem(len(lo))
	for k := range lo {
		if lo[k] > hi[k] {
			return nil, fmt.Errorf("loopnest: Box dimension %d empty: [%d, %d]", k, lo[k], hi[k])
		}
		s.AddRange(k, lo[k], hi[k])
	}
	return New(names, s, deps)
}

// DepMatrix turns dependence vectors d_l, given as rows, into the columns
// of D: nil for none, an error for ragged rows.
func DepMatrix(rows [][]int64) (*ilin.Mat, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	m, err := ilin.IntMat(rows)
	if err != nil {
		return nil, fmt.Errorf("loopnest: dependences: %w", err)
	}
	return m.Transpose(), nil
}
