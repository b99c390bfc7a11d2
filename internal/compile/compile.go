// Package compile is the one compile driver: nest → tiling H → tiled space
// → distribution and program → certificate and generated C. Every entry
// point compiles through it, so the pipeline's order, its defaults and its
// error wrapping are decided here, once.
package compile

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tilespace/internal/apps"
	"tilespace/internal/codegen"
	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// Spec is one program to compile. A Spec without a Nest is DSL: Source is
// parsed (internal/frontend) and gives the nest, tiling, mapping dimension,
// width and kernel. Otherwise the fields below give them.
type Spec struct {
	Source string
	Nest   *loopnest.Nest
	H      *ilin.RatMat
	// MapDim is the 0-based mapping dimension; negative selects the longest
	// tile dimension (§3.1).
	MapDim int
	// Width is the number of values per iteration point: 0 means 1, and a
	// negative width is an error.
	Width int
	// Kernel computes one point. The zero Kernel is a statement storing 0
	// in every slot, for analysis and C emission only: C then needs
	// KernelC. Initial defaults to zeros.
	Kernel  exec.Kernel
	Initial exec.Initial
	// KernelC and InitialC are the generated program's kernel and boundary
	// values as C text. An empty KernelC prints Kernel (exec.Kernel.C).
	KernelC, InitialC string
	// Name names the generated C program ("tiled" when empty).
	Name string
}

// App is the Spec of a shipped app under tiling h: its nest, mapping
// dimension, width, kernel and boundary values, in Go and in C.
func App(a *apps.App, h *ilin.RatMat) Spec {
	return Spec{
		Nest: a.Nest, H: h, MapDim: a.MapDim, Width: a.Width,
		Kernel: a.Kernel, Initial: a.Initial, InitialC: a.InitialC,
	}
}

// Artifact is the immutable compiled bundle of one Spec: the program,
// compiled once, and its report, point count, certificate and C, each made
// on first use, once, and shared by every concurrent holder. Per-run state
// lives in the executor, so one Artifact may serve concurrent runs and
// outlive a cache eviction mid-run.
type Artifact struct {
	Source          string
	Width, Procs    int
	Tiles, TileSize int64
	Prog            *exec.Program

	name, kernelC, initialC string
	noKernel                bool // the Spec gave no Kernel: Prog's stores zeros
	report                  lazy[string]
	points                  lazy[int64]
	cert                    lazy[*verify.Report]
	code                    lazy[string]
}

// lazy is a value computed on first use, exactly once.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(f func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = f() })
	return l.v, l.err
}

// Compile parses (for a DSL Spec), analyzes the tiling and builds the
// executable program.
func Compile(s Spec) (*Artifact, error) {
	if s.Nest == nil {
		p, err := frontend.Parse(s.Source)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		if p.Tiling == nil {
			return nil, fmt.Errorf("spec needs a `tile` directive (e.g. `tile 1/8 0 / 0 1/8`)")
		}
		s = Spec{
			Source: s.Source, Name: s.Name, Nest: p.Nest, H: p.Tiling, MapDim: p.MapDim,
			Width: p.Width, Kernel: p.Kernel, KernelC: p.KernelC,
		}
	}
	ts, err := analyze(s.Nest, s.H)
	if err != nil {
		return nil, err
	}
	if s.Width == 0 {
		s.Width = 1
	}
	noKernel := s.Kernel.IsZero()
	if noKernel && s.Width > 0 {
		zeros := make([]*exec.Expr, s.Width)
		for i := range zeros {
			zeros[i] = exec.Const(0)
		}
		s.Kernel = exec.Statement(zeros...)
	}
	prog, err := exec.NewProgram(ts, s.MapDim, s.Width, s.Kernel, s.Initial)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if s.Name == "" {
		s.Name = "tiled"
	}
	return &Artifact{
		Source: s.Source, Width: s.Width, Procs: prog.Dist.NumProcs(),
		Tiles: ts.NumTiles(), TileSize: ts.T.TileSize, Prog: prog,
		name: s.Name, kernelC: s.KernelC, initialC: s.InitialC, noKernel: noKernel,
	}, nil
}

// Distribute is the program-free front of Compile — analyze, then
// distribute the tiles — for the scorers that simulate and never execute.
// A negative mapDim selects the longest tile dimension.
func Distribute(nest *loopnest.Nest, h *ilin.RatMat, mapDim int) (*distrib.Distribution, error) {
	ts, err := analyze(nest, h)
	if err != nil {
		return nil, err
	}
	if mapDim < 0 {
		mapDim = distrib.ChooseMappingDim(ts)
	}
	return distrib.New(ts, mapDim)
}

func analyze(nest *loopnest.Nest, h *ilin.RatMat) (*tiling.TiledSpace, error) {
	if h == nil {
		return nil, fmt.Errorf("compile: no tiling matrix H")
	}
	ts, err := tiling.Analyze(nest, h)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return ts, nil
}

// Report renders the compile-time analysis (codegen.Report).
func (a *Artifact) Report() string {
	r, _ := a.report.get(func() (string, error) { return codegen.Report(a.Prog.Dist), nil })
	return r
}

// Points is the number of iteration points.
func (a *Artifact) Points() int64 {
	n, _ := a.points.get(a.Prog.TS.Nest.Size) // NewProgram already had the nest's bounds
	return n
}

// Certificate proves the compiled program correct (comm-set exactness,
// deadlock freedom, LDS bounds); concurrent callers share the one proof.
func (a *Artifact) Certificate() (*verify.Report, error) {
	return a.cert.get(func() (*verify.Report, error) { return verify.Certify(a.Prog.TS, a.Prog.Dist) })
}

// C is the equivalent C+MPI program: the Spec's name, the program's width,
// and its kernel and boundary values in C.
func (a *Artifact) C() (string, error) {
	return a.code.get(func() (string, error) {
		return a.Emit(codegen.Options{Name: a.name, KernelStmt: a.kernelC, InitialStmt: a.initialC})
	})
}

// Emit generates the C+MPI program under explicit options, uncached: a zero
// Width is the program's, and an empty KernelStmt prints the program's
// kernel (exec.Kernel.C), which a Spec without a Kernel does not have.
func (a *Artifact) Emit(opts codegen.Options) (string, error) {
	if opts.Width == 0 {
		opts.Width = a.Prog.Width
	}
	if opts.KernelStmt == "" {
		err := errors.New("compile: the spec gives no kernel")
		if !a.noKernel {
			opts.KernelStmt, err = a.Prog.Kernel.C()
		}
		if err != nil {
			return "", fmt.Errorf("codegen: the spec gives no C kernel (a statement block filling out from R0…): %w", err)
		}
	}
	g, err := codegen.New(a.Prog.Dist, opts)
	if err != nil {
		return "", err
	}
	return g.Generate(), nil
}

// Checksum folds every value of a finished run, in lexicographic order a
// row at a time, into one 64-bit FNV-1a digest: two runs of one program
// agree bit for bit iff their checksums agree.
func (a *Artifact) Checksum(g *exec.Global) string {
	h := ilin.HashSeed()
	a.Prog.ScanSpaceRows(func(j ilin.Vec, n int64) bool {
		for _, v := range g.Row(j, n) {
			h = ilin.HashInt64(h, int64(math.Float64bits(v)))
		}
		return true
	})
	return fmt.Sprintf("%016x", h)
}
