package exec

import (
	"fmt"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// Kernel is the loop body F: given the iteration point j and the value
// vectors read through each dependence (reads[l] is the value at j − d_l),
// it writes the point's value vector into out. Implementations must not
// retain the read slices.
type Kernel func(j ilin.Vec, reads [][]float64, out []float64)

// Initial supplies the value vector of points outside the iteration space
// (boundary and initial conditions); the paper's experiments read such
// points through every dependence that crosses the space boundary.
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
}

// NewProgram validates and assembles a program. The mapping dimension is
// chosen automatically (the longest tile dimension, §3.1) when m < 0.
func NewProgram(ts *tiling.TiledSpace, m int, width int, kernel Kernel, initial Initial) (*Program, error) {
	if width <= 0 {
		return nil, fmt.Errorf("exec: width must be positive")
	}
	if kernel == nil {
		return nil, fmt.Errorf("exec: kernel is required")
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
	return &Program{TS: ts, Dist: d, Width: width, Kernel: kernel, Initial: initial}, nil
}

// reference allocates the global data space and returns the function that
// computes one point into it, reading each dependence's source from the
// space — or from Initial where it lies outside. The two sequential
// references below differ only in the order they visit the points in.
func (p *Program) reference() (*Global, func(j ilin.Vec), error) {
	lo, hi, err := p.TS.Nest.BoundingBox()
	if err != nil {
		return nil, nil, err
	}
	g := NewGlobal(lo, hi, p.Width)
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
		p.Kernel(j, reads, g.At(j))
	}, nil
}

// RunSequential executes the program in the original lexicographic order
// (valid because all dependencies are lexicographically positive) and
// returns the filled global data space.
func (p *Program) RunSequential() (*Global, error) {
	g, point, err := p.reference()
	if err != nil {
		return nil, err
	}
	nb, err := p.TS.Nest.Bounds()
	if err != nil {
		return nil, err
	}
	nb.Scan(func(j ilin.Vec) bool {
		point(j)
		return true
	})
	return g, nil
}

// ScanSpace enumerates the iteration space (convenience for comparisons).
func (p *Program) ScanSpace(fn func(j ilin.Vec) bool) {
	nb, err := p.TS.Nest.Bounds()
	if err != nil {
		panic(err)
	}
	nb.Scan(fn)
}

// RunTiledSequential executes the paper's §2.3 sequential tiled code: the
// 2n-deep loop nest that visits tiles in lexicographic order and sweeps
// each tile's points atomically, reading and writing the global data space
// directly. Tiling legality (H·D ≥ 0) guarantees this reordering computes
// the same values as the original order; comparing against RunSequential
// is an executable proof for a given space.
func (p *Program) RunTiledSequential() (*Global, error) {
	g, point, err := p.reference()
	if err != nil {
		return nil, err
	}
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
