package exec

import (
	"math"

	"tilespace/internal/ilin"
)

// RunPointwise is the per-point sequential oracle: the original
// lexicographic order, one point at a time through reference() — a
// containment test per read and Kernel.Point per point, as RunSequential
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
			pt := make(ilin.Vec, len(g.Lo))
			idx := int64(i / g.Width)
			for k := range pt {
				pt[k] = g.Lo[k] + idx/g.stride[k]
				idx %= g.stride[k]
			}
			return pt, true
		}
	}
	return nil, false
}
