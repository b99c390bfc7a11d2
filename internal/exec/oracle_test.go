package exec

import (
	"math"

	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// reference allocates the global data space and returns the function that
// computes one point into it, reading each dependence's source from the
// space — or from Initial where it lies outside: the paper's per-point
// sequential code. It evaluates a statement by walking its trees
// (treePoint), so it shares nothing with the row sweeps of RunSequential
// and the executor — not even the lowered kernel — and is the oracle both
// are checked against.
func (p *Program) reference() (*Global, func(j ilin.Vec)) {
	g := nanGlobal(p.lo, p.hi, p.Width)
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
		p.Kernel.treePoint(j, reads, g.At(j))
	}
}

// global maps a tile j^S and TTIS lattice coordinate z to the original
// iteration j = P·j^S + U·z.
func global(ts *tiling.TiledSpace, jS, z ilin.Vec) ilin.Vec {
	return ts.T.P.MulVec(jS).Add(ts.T.U.MulVec(z))
}

// RunTiledSequential is the tiled per-point oracle, the paper's §2.3
// sequential tiled code: the 2n-deep loop nest that visits tiles in
// lexicographic order and sweeps each tile's points atomically through
// reference(). Tiling legality (H·D ≥ 0) guarantees this reordering
// computes the same values as the original order; comparing against
// RunSequential is an executable proof for a given space.
func (p *Program) RunTiledSequential() (*Global, error) {
	g, point := p.reference()
	p.TS.ScanTiles(func(jS ilin.Vec) bool {
		tile := jS.Clone()
		tilePoints(p.TS, tile, func(z, jp ilin.Vec) bool {
			point(global(p.TS, tile, z))
			return true
		})
		return true
	})
	return g, nil
}

// RunPointwise is the per-point sequential oracle: the original
// lexicographic order, one point at a time through reference() — a
// containment test per read and the tree walk per point, as RunSequential
// computed before it swept rows.
func (p *Program) RunPointwise() *Global {
	g, point := p.reference()
	p.bounds.Scan(func(j ilin.Vec) bool {
		point(j)
		return true
	})
	return g
}

// FirstBitDiff returns the first point of the box, in storage order, whose
// value vectors in g and o differ in any bit (NaN payloads included), and
// whether there is one. Both globals must have the same shape.
func (g *Global) FirstBitDiff(o *Global) (ilin.Vec, bool) {
	if !g.Lo.Equal(o.Lo) || !g.Hi.Equal(o.Hi) || g.Width != o.Width {
		panic("exec: FirstBitDiff of globals of different shapes")
	}
	for i, v := range g.data {
		if math.Float64bits(v) != math.Float64bits(o.data[i]) {
			return g.pointOf(i), true
		}
	}
	return nil, false
}

// FirstMisplacedNaN returns the first point of the box, in storage order,
// that holds a NaN in p's iteration space or a number off it, and whether
// there is one.
func (g *Global) FirstMisplacedNaN(p *Program) (ilin.Vec, bool) {
	in := make([]bool, len(g.data)/g.Width)
	p.ScanSpace(func(j ilin.Vec) bool {
		in[g.index(j)/int64(g.Width)] = true
		return true
	})
	for i, v := range g.data {
		if math.IsNaN(v) == in[i/g.Width] {
			return g.pointOf(i), true
		}
	}
	return nil, false
}

// pointOf returns the point whose value vector holds data[i].
func (g *Global) pointOf(i int) ilin.Vec {
	pt := make(ilin.Vec, len(g.Lo))
	idx := int64(i / g.Width)
	for k := range pt {
		pt[k] = g.Lo[k] + idx/g.stride[k]
		idx %= g.stride[k]
	}
	return pt
}

// tilePoints walks tile jS of ts point by point in scan order — the rows of
// ScanTileRows expanded, z and jp reused buffers — until fn returns false.
func tilePoints(ts *tiling.TiledSpace, jS ilin.Vec, fn func(z, jp ilin.Vec) bool) {
	last := ts.T.N - 1
	ts.ScanTileRows(jS, func(z, jp ilin.Vec, n int64) bool {
		for ; n > 0; n-- {
			if !fn(z, jp) {
				return false
			}
			z[last]++
			jp[last] += ts.T.C[last]
		}
		return true
	})
}
