// Package tilespace is a complete end-to-end framework for compiling tiled
// iteration spaces for clusters, reproducing Goumas, Drosinos, Athanasaki
// and Koziris, "Compiling Tiled Iteration Spaces for Clusters" (IEEE
// Cluster 2002).
//
// Given a perfectly nested loop with uniform constant dependencies and a
// general parallelepiped tiling transformation H, it:
//
//   - validates legality against the dependence cone and computes the
//     tiling cone's extreme rays, from which Optimize draws
//     scheduling-optimal non-rectangular tilings;
//   - transforms the non-rectangular tile into a rectangular one via the
//     non-unimodular H' = V·H and its Hermite normal form, yielding loop
//     strides, incremental offsets, and exact Fourier–Motzkin loop bounds
//     for both tile and intra-tile loops (boundary tiles clamped);
//   - distributes tiles over an (n−1)-dimensional processor mesh along the
//     longest dimension, lays out dense rectangular Local Data Spaces and
//     derives the compile-time communication sets (the CC vector);
//   - executes the resulting data-parallel program for real on an
//     in-process message-passing runtime and verifies it against
//     sequential execution;
//   - predicts cluster performance with a discrete-event simulator
//     calibrated to the paper's Pentium-III/FastEthernet testbed; and
//   - emits the equivalent C+MPI source code, like the paper's tool.
//
// Quick start:
//
//	nest, _ := tilespace.NewLoopNest([]string{"i", "j"},
//	    []int64{0, 0}, []int64{99, 99},
//	    [][]int64{{1, 0}, {0, 1}})               // deps as rows d_l
//	h, _ := tilespace.RectangularTiling(10, 10)
//	one, r0, r1 := tilespace.Const(1), tilespace.Read(0, 0), tilespace.Read(1, 0)
//	prog, _ := tilespace.Compile(nest, h, tilespace.CompileOptions{
//	    Kernel: tilespace.Statement(tilespace.Add(tilespace.Add(one, r0), r1)),
//	})                                           // out[0] = 1 + reads[0][0] + reads[1][0]
//	res, _ := prog.RunParallel()
//	_ = res.At([]int64{99, 99})
package tilespace

import (
	"fmt"

	"tilespace/internal/codegen"
	"tilespace/internal/compile"
	"tilespace/internal/cone"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/mpi"
	"tilespace/internal/opt"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

// LoopNest is a perfectly nested loop with uniform constant dependencies
// over a bounded convex iteration space.
type LoopNest struct {
	nest *loopnest.Nest
}

// NewLoopNest builds a rectangular-space nest lo_k ≤ j_k ≤ hi_k. deps
// lists the dependence vectors d_l as rows; every d_l must be
// lexicographically positive.
func NewLoopNest(names []string, lo, hi []int64, deps [][]int64) (*LoopNest, error) {
	d, err := loopnest.DepMatrix(deps)
	if err != nil {
		return nil, err
	}
	n, err := loopnest.Box(names, lo, hi, d)
	if err != nil {
		return nil, err
	}
	return &LoopNest{nest: n}, nil
}

// Skew applies a unimodular transformation (rows of t) to the nest,
// returning the skewed nest — required before rectangular tiling when some
// dependence component is negative (SOR, Jacobi).
func (ln *LoopNest) Skew(t [][]int64) (*LoopNest, error) {
	m, err := ilin.IntMat(t)
	if err != nil {
		return nil, fmt.Errorf("tilespace: skew matrix: %w", err)
	}
	sk, err := ln.nest.Skew(m)
	if err != nil {
		return nil, err
	}
	return &LoopNest{nest: sk}, nil
}

// Size returns the number of iterations.
func (ln *LoopNest) Size() (int64, error) { return ln.nest.Size() }

// ConeRays returns the extreme rays of the nest's tiling cone — the
// directions from which Hodzic–Shang-optimal tile facets are drawn.
func (ln *LoopNest) ConeRays() ([][]int64, error) {
	rays, err := cone.New(ln.nest.Deps).ExtremeRays()
	if err != nil {
		return nil, err
	}
	out := make([][]int64, len(rays))
	for i, r := range rays {
		out[i] = r
	}
	return out, nil
}

// Tiling is a validated-on-Compile tiling transformation H.
type Tiling struct {
	h *ilin.RatMat
}

// RectangularTiling returns H = diag(1/s_1, …, 1/s_n).
func RectangularTiling(sizes ...int64) (Tiling, error) {
	t, err := tiling.Rectangular(sizes...)
	if err != nil {
		return Tiling{}, err
	}
	return Tiling{h: t.H}, nil
}

// TilingFromRows parses H from rational strings, e.g.
// {{"1/8","0","0"},{"0","1/8","0"},{"-1/8","0","1/8"}}.
func TilingFromRows(rows [][]string) (Tiling, error) {
	h, err := ilin.ParseRatMat(rows)
	if err != nil {
		return Tiling{}, fmt.Errorf("tilespace: tiling matrix: %w", err)
	}
	return Tiling{h: h}, nil
}

// Kernel is the loop body: a statement (Statement) computing an iteration
// point's value vector from the value vectors read through each dependence.
// The executor runs it a TTIS row at a time and GenerateC prints it as C.
type Kernel = exec.Kernel

// Expr is a node of a statement's expression tree.
type Expr = exec.Expr

// Statement is the loop body given as data: slots[s] computes slot s of the
// point's value vector, so the program's width is len(slots). Every slot is
// evaluated from the values read before any is stored.
func Statement(slots ...*Expr) Kernel { return exec.Statement(slots...) }

// Const is the constant v.
func Const(v float64) *Expr { return exec.Const(v) }

// Read is slot `slot` of the value vector read through dependence `dep`, the
// value at j − d_dep.
func Read(dep, slot int) *Expr { return exec.Read(dep, slot) }

// Coef is a coefficient that depends on the iteration point j only: f must
// be a pure function of j, safe for concurrent calls, and must not retain j.
// c is f as a C expression over j[0…n), operation for operation.
func Coef(f func(j []int64) float64, c string) *Expr {
	return exec.Coef(func(j ilin.Vec) float64 { return f(j) }, c)
}

// Add is l + r.
func Add(l, r *Expr) *Expr { return exec.Add(l, r) }

// Sub is l − r.
func Sub(l, r *Expr) *Expr { return exec.Sub(l, r) }

// Mul is l × r.
func Mul(l, r *Expr) *Expr { return exec.Mul(l, r) }

// Div is l ÷ r.
func Div(l, r *Expr) *Expr { return exec.Div(l, r) }

// Initial supplies value vectors for points outside the iteration space.
type Initial func(j []int64, out []float64)

// CompileOptions configure Compile.
type CompileOptions struct {
	// MapDim is the mapping dimension (0-based); negative selects the
	// longest dimension automatically (§3.1).
	MapDim int
	// Width is the number of values per iteration point (default 1).
	Width int
	// Kernel is required for execution. Without one the program stores
	// zeros, for analysis only, and GenerateC needs a KernelStmt.
	Kernel Kernel
	// Initial defaults to zeros.
	Initial Initial
}

// Program is a compiled tiled program.
type Program struct {
	art *compile.Artifact
}

// Compile analyzes the tiling against the nest and prepares execution.
func Compile(ln *LoopNest, t Tiling, opts CompileOptions) (*Program, error) {
	s := compile.Spec{Nest: ln.nest, H: t.h, MapDim: opts.MapDim, Width: opts.Width, Kernel: opts.Kernel}
	if init := opts.Initial; init != nil {
		s.Initial = func(j ilin.Vec, out []float64) { init(j, out) }
	}
	art, err := compile.Compile(s)
	if err != nil {
		return nil, err
	}
	return &Program{art: art}, nil
}

// Result is a filled global data space.
type Result struct {
	g     *exec.Global
	prog  *exec.Program
	Stats mpi.Stats
}

// At returns the value vector computed at iteration point j.
func (r *Result) At(j []int64) []float64 { return r.g.At(ilin.NewVec(j...)) }

// MaxAbsDiff compares two results over the iteration space.
func (r *Result) MaxAbsDiff(o *Result) (float64, []int64) {
	d, at := r.g.MaxAbsDiff(o.g, r.prog.ScanSpace)
	return d, at
}

// RunSequential executes the program in original iteration order.
func (p *Program) RunSequential() (*Result, error) {
	g, err := p.art.Prog.RunSequential()
	if err != nil {
		return nil, err
	}
	return &Result{g: g, prog: p.art.Prog}, nil
}

// RunParallel executes the compiled data-parallel program: one runtime
// rank per processor, running the paper's receive→compute→send protocol
// with blocking sends.
func (p *Program) RunParallel() (*Result, error) {
	return p.RunParallelOpts(RunOptions{})
}

// RunOptions selects the parallel execution strategy (re-exported):
// Overlap switches sends to non-blocking Isends awaited at chain end.
type RunOptions = exec.RunOptions

// RunParallelOpts is RunParallel with an explicit execution strategy.
func (p *Program) RunParallelOpts(opt RunOptions) (*Result, error) {
	g, stats, err := p.art.Prog.RunParallelOpts(opt)
	if err != nil {
		return nil, err
	}
	return &Result{g: g, prog: p.art.Prog, Stats: stats}, nil
}

// Processors returns the size of the processor mesh.
func (p *Program) Processors() int { return p.art.Procs }

// Tiles returns the number of tiles.
func (p *Program) Tiles() int64 { return p.art.Tiles }

// TileSize returns the iterations per full tile, 1/|det H|.
func (p *Program) TileSize() int64 { return p.art.TileSize }

// Report renders the full compile-time analysis.
func (p *Program) Report() string { return p.art.Report() }

// ClusterParams is the simulator cost model (re-exported).
type ClusterParams = simnet.Params

// FastEthernetPIII is the paper's testbed model.
func FastEthernetPIII() ClusterParams { return simnet.FastEthernetPIII() }

// SimReport is a simulated execution result (re-exported).
type SimReport = simnet.Result

// Simulate predicts the program's cluster execution under the cost model.
func (p *Program) Simulate(par ClusterParams) (*SimReport, error) {
	par.Width = p.art.Prog.Width
	return simnet.Simulate(p.art.Prog.Dist, par)
}

// CodegenOptions configure GenerateC (re-exported).
type CodegenOptions = codegen.Options

// GenerateC emits the equivalent standalone C+MPI program. An empty
// KernelStmt prints the program's own kernel (Kernel.C).
func (p *Program) GenerateC(opts CodegenOptions) (string, error) {
	return p.art.Emit(opts)
}

// Source is a loop-nest program parsed from the textual front-end notation
// (see internal/frontend for the grammar): bounds, dependencies and the
// kernel are all extracted from the source text.
type Source struct {
	// Nest is the parsed (and, if directed, skewed) loop nest.
	Nest *LoopNest
	// Arrays lists the assigned arrays (statement order); Width =
	// len(Arrays) values per iteration point.
	Arrays []string
	// Width is the number of values per iteration point.
	Width int
	// Kernel is the parsed statement: what the executor runs and what
	// GenerateC prints.
	Kernel Kernel
	// Tiling is the parsed `tile` directive, or a zero Tiling when absent
	// (check HasTiling).
	Tiling Tiling
	// HasTiling reports whether the source carried a `tile` directive.
	HasTiling bool
	// MapDim is the 0-based mapping dimension from the `map` directive,
	// or -1.
	MapDim int
}

// ParseSource parses the loop-nest DSL:
//
//	let M = 100
//	for t = 1 .. M
//	for i = 1 .. M
//	A[t,i] = 0.5*(A[t-1,i] + A[t,i-1])
//	skew 1 0 / 1 1        # optional
//	tile 1/8 0 / 0 1/8    # optional
//	map 1                 # optional, 1-based
func ParseSource(text string) (*Source, error) {
	p, err := frontend.Parse(text)
	if err != nil {
		return nil, err
	}
	src := &Source{
		Nest:   &LoopNest{nest: p.Nest},
		Arrays: p.Arrays,
		Width:  p.Width,
		Kernel: p.Kernel,
		MapDim: p.MapDim,
	}
	if p.Tiling != nil {
		src.Tiling = Tiling{h: p.Tiling}
		src.HasTiling = true
	}
	return src, nil
}

// SearchOptions configure Optimize (re-exported from the optimizer).
type SearchOptions = opt.Options

// SearchResult is a ranked tile-shape search (re-exported).
type SearchResult = opt.Result

// TilingCandidate is one evaluated tiling (re-exported).
type TilingCandidate = opt.Candidate

// Optimize searches rectangular and cone-derived tiling families over a
// factor grid and ranks them with the analytic schedule model — the
// automated version of the paper's experimental tile-shape comparison.
// Use CandidateTiling to compile the winner.
func Optimize(ln *LoopNest, o SearchOptions) (*SearchResult, error) {
	return opt.Search(ln.nest, o)
}

// CandidateTiling converts a search candidate into a compilable Tiling.
func CandidateTiling(c *TilingCandidate) Tiling { return Tiling{h: c.H} }
