package exec

import (
	"fmt"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/poly"
	"tilespace/internal/tiling"
)

// Initial supplies the value vector of points outside the iteration space
// (boundary and initial conditions); the paper's experiments read such
// points through every dependence that crosses the space boundary. It must
// be a pure function of j, safe for concurrent calls: every rank, every
// crash re-execution and both sequential references evaluate it
// independently and are compared bit for bit, and the executor evaluates it
// once per Program and replays the values on every run.
type Initial func(j ilin.Vec, out []float64)

// Program is a compiled tiled program ready for sequential or parallel
// execution. The compiled §3.2 protocol the executor interprets lives on
// Dist (distrib/protocol.go): built on first use, shared read-only by every
// later run, concurrent ones included — and by the certifier and simulator.
type Program struct {
	TS      *tiling.TiledSpace
	Dist    *distrib.Distribution
	Width   int
	Kernel  Kernel
	Initial Initial

	// Constants of the nest, computed once: the bounding box every Global is
	// allocated over and the loop bounds every space scan walks.
	lo, hi ilin.Vec
	bounds *poly.NestBounds
	// inits[r] is rank r's boundary values (plan.go), compiled on the rank's
	// first run.
	inits []rankInit
}

// NewProgram validates and assembles a program. The mapping dimension is
// chosen automatically (the longest tile dimension, §3.1) when m < 0.
func NewProgram(ts *tiling.TiledSpace, m int, width int, kernel Kernel, initial Initial) (*Program, error) {
	if width <= 0 {
		return nil, fmt.Errorf("exec: width must be positive")
	}
	if kernel.IsZero() {
		return nil, fmt.Errorf("exec: kernel is required")
	}
	if err := kernel.check(width, ts.Nest.Q()); err != nil {
		return nil, err
	}
	if initial == nil {
		initial = func(j ilin.Vec, out []float64) {
			for i := range out {
				out[i] = 0
			}
		}
	}
	if m < 0 {
		m = distrib.ChooseMappingDim(ts)
	}
	d, err := distrib.New(ts, m)
	if err != nil {
		return nil, err
	}
	p := &Program{TS: ts, Dist: d, Width: width, Kernel: kernel, Initial: initial, inits: make([]rankInit, d.NumProcs())}
	if p.lo, p.hi, err = ts.Nest.BoundingBox(); err != nil {
		return nil, err
	}
	if p.bounds, err = ts.Nest.Bounds(); err != nil {
		return nil, err
	}
	return p, nil
}

// reference allocates the global data space and returns the function that
// computes one point into it, reading each dependence's source from the
// space — or from Initial where it lies outside. The two sequential
// references below differ only in the order they visit the points in; both
// stay per point (Kernel.Point): they are the oracle the row-wise executor
// is compared against.
func (p *Program) reference() (*Global, func(j ilin.Vec)) {
	g := NewGlobal(p.lo, p.hi, p.Width)
	q := p.TS.Nest.Q()
	reads := make([][]float64, q)
	readBuf := make([]float64, q*p.Width)
	deps := make([]ilin.Vec, q)
	for l := 0; l < q; l++ {
		deps[l] = p.TS.Nest.Dep(l)
	}
	src := make(ilin.Vec, p.TS.T.N)
	return g, func(j ilin.Vec) {
		for l := 0; l < q; l++ {
			copy(src, j)
			for k := range src {
				src[k] -= deps[l][k]
			}
			if p.TS.Nest.Space.Contains(src) {
				reads[l] = g.At(src)
			} else {
				buf := readBuf[l*p.Width : (l+1)*p.Width]
				p.Initial(src, buf)
				reads[l] = buf
			}
		}
		p.Kernel.Point(j, reads, g.At(j))
	}
}

// RunSequential executes the program in the original lexicographic order
// (valid because all dependencies are lexicographically positive) and
// returns the filled global data space.
func (p *Program) RunSequential() (*Global, error) {
	g, point := p.reference()
	p.bounds.Scan(func(j ilin.Vec) bool {
		point(j)
		return true
	})
	return g, nil
}

// ScanSpace enumerates the iteration space (convenience for comparisons).
func (p *Program) ScanSpace(fn func(j ilin.Vec) bool) {
	p.bounds.Scan(fn)
}

// ScanSpaceRows enumerates the iteration space a row at a time: fn receives
// the first point of each innermost segment and its length, in
// lexicographic order.
func (p *Program) ScanSpaceRows(fn func(j ilin.Vec, n int64) bool) {
	p.bounds.ScanRows(fn)
}

// RunTiledSequential executes the paper's §2.3 sequential tiled code: the
// 2n-deep loop nest that visits tiles in lexicographic order and sweeps
// each tile's points atomically, reading and writing the global data space
// directly. Tiling legality (H·D ≥ 0) guarantees this reordering computes
// the same values as the original order; comparing against RunSequential
// is an executable proof for a given space.
func (p *Program) RunTiledSequential() (*Global, error) {
	g, point := p.reference()
	p.TS.ScanTiles(func(jS ilin.Vec) bool {
		tile := jS.Clone()
		p.TS.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
			point(p.TS.GlobalOf(tile, z))
			return true
		})
		return true
	})
	return g, nil
}
