package serve

import (
	"fmt"
	"math"
	"sync"

	"tilespace/internal/codegen"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/verify"
)

// Artifact is the immutable compiled bundle one spec maps to: the tiling
// analysis, distribution and executable program compiled once, plus the
// certification and generated code materialized lazily (each exactly
// once, shared by every concurrent holder). What an Artifact holds is
// either fixed at construction or built exactly once and read-only
// afterwards: the compiled protocol the certifier and every run read is one
// of the latter, cached on Prog.Dist (distrib/protocol.go) and retained as
// long as the Artifact. Per-run state (Global, LDS, claim state, buffers)
// lives in the executor. That is what makes sharing one Artifact across
// concurrent runs and surviving cache eviction mid-run safe.
type Artifact struct {
	Source   string
	Width    int
	Procs    int
	Tiles    int64
	Points   int64
	TileSize int64
	Prog     *exec.Program
	Report   string // rendered compile-time analysis (codegen.Report)

	kernelC string

	certOnce sync.Once
	cert     *verify.Report
	certErr  error

	codeOnce sync.Once
	code     string
	codeErr  error
}

// compileSpec runs the full pipeline on one spec source: parse the DSL,
// analyze the tiling, build the distribution and the executable program,
// and render the analysis report. This is the expensive function the
// cache exists to run once per source, and the only place the service
// parses.
func compileSpec(source string) (*Artifact, error) {
	p, err := frontend.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := p.Compile()
	if err != nil {
		return nil, err
	}
	points, err := p.Nest.Size()
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Source:   source,
		Width:    p.Width,
		Procs:    prog.Dist.NumProcs(),
		Tiles:    prog.TS.NumTiles(),
		Points:   points,
		TileSize: prog.TS.T.TileSize,
		Prog:     prog,
		Report:   codegen.Report(prog.Dist),
		kernelC:  p.KernelC,
	}, nil
}

// Certificate proves the compiled program correct (comm-set exactness,
// deadlock freedom, LDS bounds) exactly once per Artifact; concurrent
// callers share the one proof.
func (a *Artifact) Certificate() (*verify.Report, error) {
	a.certOnce.Do(func() {
		a.cert, a.certErr = verify.Certify(a.Prog.TS, a.Prog.Dist)
	})
	return a.cert, a.certErr
}

// GeneratedC emits the equivalent C+MPI program exactly once per
// Artifact.
func (a *Artifact) GeneratedC() (string, error) {
	a.codeOnce.Do(func() {
		g, err := codegen.New(a.Prog.Dist, codegen.Options{
			Name: "tileserved", Width: a.Width, KernelStmt: a.kernelC,
		})
		if err != nil {
			a.codeErr = err
			return
		}
		a.code = g.Generate()
	})
	return a.code, a.codeErr
}

// Checksum folds every computed value of a finished run into one 64-bit
// FNV-1a digest, scanning the iteration space in lexicographic order — a
// row at a time, each row one contiguous slice of the global array.
// Two runs of one spec agree bit for bit iff their checksums agree,
// which is what the concurrency battery asserts across cache hits and
// evictions.
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
