package serve

import (
	"fmt"
	"math"
	"sync"

	"tilespace/internal/codegen"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// Key identifies one compiled artifact bundle in the plan cache: the
// FNV-1a fold (ilin.HashInt64s) of the spec source, the parsed tiling
// matrix and the mapping directive — everything the compile pipeline's
// output depends on. The grid (processor mesh) is a pure function of
// (spec, tiling, map), so keying those keys the grid too. Ident carries
// the exact identity and is compared on every probe, so a hash collision
// can never alias two specs.
type Key struct {
	Hash  uint64
	Ident string
}

// keyOf derives the cache key from a parsed spec. The tiling rows and
// mapping dimension are folded explicitly (not just as source text) so
// two sources that normalize to the same compile inputs still key
// consistently with what the compiler actually consumes.
func keyOf(source string, p *frontend.Program) Key {
	h := ilin.HashInt64(ilin.HashSeed(), int64(len(source)))
	var word int64
	for i := 0; i < len(source); i++ {
		word = word<<8 | int64(source[i])
		if i%8 == 7 {
			h = ilin.HashInt64(h, word)
			word = 0
		}
	}
	h = ilin.HashInt64(h, word)
	h = ilin.HashInt64(h, int64(p.MapDim))
	h = ilin.HashInt64(h, int64(p.Width))
	if p.Tiling != nil {
		for i := 0; i < p.Tiling.Rows; i++ {
			for j := 0; j < p.Tiling.Cols; j++ {
				v := p.Tiling.At(i, j)
				h = ilin.HashInt64s(h, []int64{v.Num, v.Den})
			}
		}
	}
	return Key{Hash: h, Ident: fmt.Sprintf("%s\x00map=%d", source, p.MapDim)}
}

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
	Key      Key
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
// cache exists to run once per key.
func compileSpec(source string) (*Artifact, error) {
	p, err := frontend.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if p.Tiling == nil {
		return nil, fmt.Errorf("spec needs a `tile` directive (e.g. `tile 1/8 0 / 0 1/8`)")
	}
	ts, err := tiling.Analyze(p.Nest, p.Tiling)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	prog, err := exec.NewProgram(ts, p.MapDim, p.Width, p.Kernel, nil)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	points, err := p.Nest.Size()
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Key:      keyOf(source, p),
		Source:   source,
		Width:    p.Width,
		Procs:    prog.Dist.NumProcs(),
		Tiles:    ts.NumTiles(),
		Points:   points,
		TileSize: ts.T.TileSize,
		Prog:     prog,
		Report:   codegen.Report(prog.Dist),
		kernelC:  p.KernelC,
	}, nil
}

// parseKey parses just far enough to key the cache without building the
// program (the miss path re-parses inside compileSpec; parsing is two
// orders of magnitude cheaper than analysis, so hits stay cheap and
// misses stay single-flight on the full pipeline).
func parseKey(source string) (Key, error) {
	p, err := frontend.Parse(source)
	if err != nil {
		return Key{}, fmt.Errorf("parse: %w", err)
	}
	if p.Tiling == nil {
		return Key{}, fmt.Errorf("spec needs a `tile` directive (e.g. `tile 1/8 0 / 0 1/8`)")
	}
	return keyOf(source, p), nil
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
// FNV-1a digest, scanning the iteration space in lexicographic order.
// Two runs of one spec agree bit for bit iff their checksums agree,
// which is what the concurrency battery asserts across cache hits,
// evictions, pooled-world reuse and fault recovery.
func (a *Artifact) Checksum(g *exec.Global) string {
	h := ilin.HashSeed()
	a.Prog.ScanSpace(func(j ilin.Vec) bool {
		for _, v := range g.At(j) {
			h = ilin.HashInt64(h, int64(math.Float64bits(v)))
		}
		return true
	})
	return fmt.Sprintf("%016x", h)
}
