// Package tilespace is a complete end-to-end framework for compiling tiled
// iteration spaces for clusters, reproducing Goumas, Drosinos, Athanasaki
// and Koziris, "Compiling Tiled Iteration Spaces for Clusters" (IEEE
// Cluster 2002).
//
// Given a perfectly nested loop with uniform constant dependencies and a
// general parallelepiped tiling transformation H, it:
//
//   - validates legality against the dependence cone and computes the
//     tiling cone's extreme rays (and can suggest scheduling-optimal
//     non-rectangular tilings from them);
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
//	prog, _ := tilespace.Compile(nest, h, tilespace.CompileOptions{
//	    Kernel: func(j []int64, reads [][]float64, out []float64) {
//	        out[0] = 1 + reads[0][0] + reads[1][0]
//	    },
//	})
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
	"tilespace/internal/poly"
	"tilespace/internal/rat"
	"tilespace/internal/schedule"
	"tilespace/internal/serve"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
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

// NestBuilder assembles a nest over a general convex space defined by
// affine inequalities. A malformed input is recorded and returned by Build.
type NestBuilder struct {
	names []string
	sys   *poly.System
	deps  [][]int64
	err   error
}

// NewNestBuilder starts a builder for the given loop variables.
func NewNestBuilder(names ...string) *NestBuilder {
	return &NestBuilder{names: names, sys: poly.NewSystem(len(names))}
}

// Constraint adds Σ coef_k·j_k ≤ rhs.
func (b *NestBuilder) Constraint(coef []int64, rhs int64) *NestBuilder {
	if b.err == nil && len(coef) != b.sys.NVars {
		b.err = fmt.Errorf("tilespace: constraint arity %d, nest depth %d", len(coef), b.sys.NVars)
	}
	if b.err == nil {
		b.sys.Add(poly.NewConstraint(ilin.NewVec(coef...).Rat(), rat.FromInt(rhs)))
	}
	return b
}

// Range adds lo ≤ j_k ≤ hi.
func (b *NestBuilder) Range(k int, lo, hi int64) *NestBuilder {
	if b.err == nil && (k < 0 || k >= b.sys.NVars) {
		b.err = fmt.Errorf("tilespace: range of variable %d, nest depth %d", k, b.sys.NVars)
	}
	if b.err == nil {
		b.sys.AddRange(k, lo, hi)
	}
	return b
}

// Dep adds a dependence vector.
func (b *NestBuilder) Dep(d ...int64) *NestBuilder {
	b.deps = append(b.deps, d)
	return b
}

// Build validates and returns the nest.
func (b *NestBuilder) Build() (*LoopNest, error) {
	if b.err != nil {
		return nil, b.err
	}
	d, err := loopnest.DepMatrix(b.deps)
	if err != nil {
		return nil, err
	}
	n, err := loopnest.New(b.names, b.sys, d)
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

// Depth returns the nesting depth n.
func (ln *LoopNest) Depth() int { return ln.nest.N }

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

// SuggestTiling returns a scheduling-optimal tiling whose rows are cone
// extreme rays scaled by 1/scale_k.
func (ln *LoopNest) SuggestTiling(scale []int64) (Tiling, error) {
	h, err := cone.New(ln.nest.Deps).SuggestTiling(scale)
	if err != nil {
		return Tiling{}, err
	}
	return Tiling{h: h}, nil
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

// TilingFromEdges builds H = P⁻¹ from the integer tile edge vectors
// (columns of P).
func TilingFromEdges(p [][]int64) (Tiling, error) {
	m, err := ilin.IntMat(p)
	if err != nil {
		return Tiling{}, fmt.Errorf("tilespace: tile edges: %w", err)
	}
	t, err := tiling.FromP(m)
	if err != nil {
		return Tiling{}, err
	}
	return Tiling{h: t.H}, nil
}

// Kernel computes one iteration: reads[l] is the value vector at j − d_l,
// out receives the value vector of j.
type Kernel func(j []int64, reads [][]float64, out []float64)

// Initial supplies value vectors for points outside the iteration space.
type Initial func(j []int64, out []float64)

// CompileOptions configure Compile.
type CompileOptions struct {
	// MapDim is the mapping dimension (0-based); negative selects the
	// longest dimension automatically (§3.1).
	MapDim int
	// Width is the number of values per iteration point (default 1).
	Width int
	// Kernel is required for execution (not for analysis/codegen-only use,
	// where a no-op kernel may be passed).
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
	s := compile.Spec{Nest: ln.nest, H: t.h, MapDim: opts.MapDim, Width: opts.Width}
	if k := opts.Kernel; k != nil {
		s.Kernel = exec.PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) { k(j, reads, out) })
	}
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
// Overlap switches sends to non-blocking Isends awaited at chain end, Net
// configures the runtime's deadlock watchdog, injected wire costs and
// deterministic fault schedule (Net.Faults), Trace attaches a measured
// per-tile timeline recorder, and Checkpoint enables crash recovery from
// tile-chain snapshots.
type RunOptions = exec.RunOptions

// NetOptions configures the runtime world (re-exported from mpi).
type NetOptions = mpi.Options

// Tracer records a measured per-rank timeline of a real parallel run
// (re-exported); attach one via RunOptions.Trace. Its Trace() method
// returns a SimTrace, so every simulator analytic — Gantt, CriticalRank,
// PhaseFractions, TraceEventJSON — works over measurements too.
type Tracer = exec.Tracer

// NewTracer returns an empty tracer ready for RunOptions.Trace.
func NewTracer() *Tracer { return exec.NewTracer() }

// RankMetrics is one rank's aggregate measured behaviour (re-exported).
type RankMetrics = exec.RankMetrics

// RunParallelOpts is RunParallel with an explicit execution strategy.
func (p *Program) RunParallelOpts(opt RunOptions) (*Result, error) {
	g, stats, err := p.art.Prog.RunParallelOpts(opt)
	if err != nil {
		return nil, err
	}
	return &Result{g: g, prog: p.art.Prog, Stats: stats}, nil
}

// VerifyReport summarizes what a successful static certification covered
// (re-exported from internal/verify).
type VerifyReport = verify.Report

// Verify runs the static certification layer over the compiled program:
// it proves comm-set exactness, deadlock-freedom (blocking and overlap
// modes) and LDS bounds safety by pure compile-time arithmetic — no rank
// is spawned — returning a coverage report, or an error carrying a
// concrete counterexample point when any proof fails. The proof is made
// once per Program.
func (p *Program) Verify() (*VerifyReport, error) {
	return p.art.Certificate()
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

// FaultPlan is a deterministic, seedable fault-injection schedule
// (re-exported from mpi): per-rank compute slowdowns, per-link delay and
// jitter, transient send failures with bounded retry, and hard rank
// crashes at a chosen tile index. Attach one via RunOptions.Net.Faults;
// pair a crash with RunOptions.Checkpoint so the rank restarts from its
// last snapshot instead of aborting the run.
type FaultPlan = mpi.FaultPlan

// Link, LinkFault and SendFaults are FaultPlan building blocks
// (re-exported from mpi).
type (
	Link       = mpi.Link
	LinkFault  = mpi.LinkFault
	SendFaults = mpi.SendFaults
)

// CheckpointOptions enables tile-chain checkpointing (re-exported from
// exec): every Every committed tiles each rank waits for its sends to be
// due and snapshots its chain position and LDS dirty region, bounding how
// far a crashed rank rewinds. Its wire position is not stored: the
// compiled tables give it at any chain slot.
type CheckpointOptions = exec.CheckpointOptions

// FaultModel configures a fault-aware simulation (re-exported from
// simnet): the same FaultPlan the runtime injects, plus the checkpoint
// period and the duration scale that maps the plan's wall-clock sleeps
// into model seconds.
type FaultModel = simnet.FaultModel

// SimulateFaults predicts the program's cluster execution under the cost
// model with the fault model applied — the prediction side of the
// measured-vs-predicted degradation comparison (clusterbench -faults).
func (p *Program) SimulateFaults(par ClusterParams, fm FaultModel) (*SimReport, error) {
	par.Width = p.art.Prog.Width
	return simnet.SimulateFaults(p.art.Prog.Dist, par, fm)
}

// SimulateFaultsTraced is SimulateFaults recording a per-tile timeline
// with crash/restart instants marked.
func (p *Program) SimulateFaultsTraced(par ClusterParams, fm FaultModel) (*SimTrace, error) {
	par.Width = p.art.Prog.Width
	return simnet.SimulateFaultsTraced(p.art.Prog.Dist, par, fm)
}

// SimTrace is a traced simulation (re-exported).
type SimTrace = simnet.Trace

// SimulateTraced runs the simulator recording a per-tile timeline; its
// Gantt method renders a text chart of the pipeline fill and drain.
func (p *Program) SimulateTraced(par ClusterParams) (*SimTrace, error) {
	par.Width = p.art.Prog.Width
	return simnet.SimulateTraced(p.art.Prog.Dist, par)
}

// CodegenOptions configure GenerateC (re-exported).
type CodegenOptions = codegen.Options

// GenerateC emits the equivalent standalone C+MPI program.
func (p *Program) GenerateC(opts CodegenOptions) (string, error) {
	return p.art.Emit(opts)
}

// RunTiledSequential executes the §2.3 reordered sequential tiled code on
// one node — an executable legality check for the chosen tiling.
func (p *Program) RunTiledSequential() (*Result, error) {
	g, err := p.art.Prog.RunTiledSequential()
	if err != nil {
		return nil, err
	}
	return &Result{g: g, prog: p.art.Prog}, nil
}

// ScheduleEstimate is the closed-form performance model (re-exported).
type ScheduleEstimate = schedule.Estimate

// PredictSchedule evaluates the analytic Hodzic–Shang-style model: the
// pipelined schedule length in steps times the per-step (compute +
// communicate) cost. The simulator refines this with boundary effects and
// message timing; Predict is what a compiler would use for fast tile-shape
// search.
func (p *Program) PredictSchedule(par ClusterParams) (*ScheduleEstimate, error) {
	par.Width = p.art.Prog.Width
	cm := schedule.CostModel{Params: par}
	return cm.Predict(p.art.Prog.Dist)
}

// ScheduleSteps returns the pipelined schedule length in steps — the
// paper's t_r/t_nr quantity; comparing tilings by this number alone
// reproduces the §4 orderings without a cost model.
func (p *Program) ScheduleSteps() int64 { return schedule.PipelinedLength(p.art.Prog.Dist) }

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
	// Kernel evaluates all statements for the Go executor.
	Kernel Kernel
	// KernelC is the parsed statement printed as C, the block
	// CodegenOptions.KernelStmt takes: the same operations Kernel applies.
	KernelC string
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
		Nest:    &LoopNest{nest: p.Nest},
		Arrays:  p.Arrays,
		Width:   p.Width,
		KernelC: p.KernelC,
		MapDim:  p.MapDim,
	}
	k := p.Kernel
	src.Kernel = func(j []int64, reads [][]float64, out []float64) {
		k.Point(j, reads, out)
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

// OptimizeShape runs the tile-shape search for this program's nest (the
// tiling used to compile the program is ignored; the search covers the
// rectangular and cone families over the option grid).
func (p *Program) OptimizeShape(o SearchOptions) (*SearchResult, error) {
	return opt.Search(p.art.Prog.TS.Nest, o)
}

// TileServerConfig sizes the tiling service (re-exported from serve):
// plan-cache capacity, in-flight run and queue bounds, the per-request
// rank budget, and the run watchdog. The zero value gets sensible
// defaults.
type TileServerConfig = serve.Config

// TileServer is the tiling-as-a-service HTTP handler (re-exported from
// serve): POST /v1/analyze, /v1/certify, /v1/codegen and /v1/run share
// compiled plans through a single-flight LRU, runs are
// admission-controlled, each on a fresh in-process world, and GET /metrics
// exposes the live counters. See cmd/tileserved for the binary.
type TileServer = serve.Server

// NewTileServer returns a ready-to-mount service handler.
func NewTileServer(cfg TileServerConfig) *TileServer { return serve.New(cfg) }
