package exec

import (
	"math"
	"sync"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// This file interprets the address level of the distribution's compiled
// protocol (distrib/protocol.go): plain tables shared read-only by every
// rank of every run, and by the certifier and the simulator. Like the
// paper's generated code it never divides per point (the reference executor,
// legacy_test.go, does n·(q+1) rat.FloorDivs per point). The unit is the
// TTIS row: a distrib.TilePlan gives each row's first cells at chain slot 0
// (add t·ChainStep for any tile of the shape), and along a row every cell
// steps by one and the global point by Protocol.RowStep. So the sweep hands
// the kernel whole rows (kernel.go), boundary injection copies precompiled
// values over each boundary run, and write-back copies each row into the
// global array.

// maxChunk caps how many points of a row a statement is evaluated over at
// once, so that the register file stays cache-resident however long the row.
const maxChunk = 1024

// rowEval is the row-evaluation scratch of a rank or of RunSequential.
type rowEval struct {
	width  int64      // values per point
	stmt   *statement // the statement regs is laid out for
	regs   []float64  // stmt.nreg registers of stride floats, constants filled
	stride int
	reads  [][]float64 // per dependence: the current row's reads
	pt     [][]float64 // per dependence: the current chunk's (or point's) part of it
	j, jb  ilin.Vec
}

// newRowEval builds scratch for kernel k, width values per point, over rows
// of up to maxRow n-dimensional points that read through q dependences.
func newRowEval(k Kernel, width, n, q, maxRow int) *rowEval {
	views := make([][]float64, 2*q)
	js := make(ilin.Vec, 2*n)
	ev := &rowEval{width: int64(width), reads: views[:q:q], pt: views[q:], j: js[:n:n], jb: js[n:]}
	if k.stmt != nil {
		ev.fit(k.stmt, maxRow)
	}
	return ev
}

// fit lays the register file out for statement s over rows of up to maxRow
// points: sized from the longest row, not a fixed chunk, so a rank of short
// rows carries a few hundred bytes.
func (ev *rowEval) fit(s *statement, maxRow int) {
	stride := min(maxRow, maxChunk)
	if ev.stmt == s && ev.stride >= stride {
		return
	}
	ev.stmt, ev.stride = s, stride
	ev.regs = make([]float64, s.nreg*stride)
	for x, v := range s.consts {
		for i := range stride {
			ev.regs[x*stride+i] = v
		}
	}
}

// row evaluates kernel k at the cnt points of a row, the first at ev.j,
// stepped by step (only Coef and opaque bodies read it): ev.reads[l] holds
// the values read through dependence l and out receives the results. A read
// may alias out hazard points back (SOR's innermost dependence);
// math.MaxInt64 means none does. Point order is kept: a statement runs over
// chunks no longer than the hazard, so each read finds its point written,
// unless it is one pass (onePass): a point reads before it writes, and point
// i−hazard was written hazard points earlier.
func (ev *rowEval) row(k Kernel, cnt, hazard int64, out []float64, step ilin.Vec) {
	w := ev.width
	if k.stmt == nil {
		for s := int64(0); s < cnt; s++ {
			for l := range ev.reads {
				ev.pt[l] = ev.reads[l][s*w:][:w]
			}
			k.point(ev.j, ev.pt, out[s*w:][:w])
			for d := range ev.j {
				ev.j[d] += step[d]
			}
		}
		return
	}
	needJ := len(k.stmt.coefs) > 0
	chunk := min(cnt, int64(ev.stride))
	if !k.stmt.onePass {
		chunk = min(chunk, hazard)
	}
	for s := int64(0); s < cnt; s += chunk {
		c := min(chunk, cnt-s)
		for l := range ev.reads {
			ev.pt[l] = ev.reads[l][s*w:][:c*w]
		}
		k.stmt.run(ev.regs, ev.stride, int(c), ev.pt, out[s*w:][:c*w], ev.j, step, ev.jb)
		if needJ {
			for d := range ev.j {
				ev.j[d] += c * step[d]
			}
		}
	}
}

// rows evaluates the kernel over every row of pl placed at chain slot t, in
// scan order. A row reads the LDS cells its table names; one that lies
// before the row's write cell in the same row is a hazard (row).
func (ev *rowEval) rows(st *rankState, pl *distrib.TilePlan, t int64) {
	k := st.p.Kernel
	w := ev.width
	n := st.p.TS.T.N
	q := len(ev.reads)
	tOff := t * st.ChainStep
	la := st.la
	if k.stmt != nil {
		ev.fit(k.stmt, st.MaxRow) // a no-op unless the program's kernel was replaced
	}
	needJ := k.stmt == nil || len(k.stmt.coefs) > 0
	for r, row := range pl.Rows {
		cnt := int64(row.N)
		if needJ {
			uz := pl.Uz[r*n : r*n+n]
			for d := range ev.j {
				ev.j[d] = st.pBase[d] + uz[d]
			}
		}
		hazard := int64(math.MaxInt64)
		for l, c := range pl.Read[r*q : r*q+q] {
			ev.reads[l] = la[(c+tOff)*w:][:cnt*w]
			if d := row.Write - c; d > 0 {
				hazard = min(hazard, d)
			}
		}
		ev.row(k, cnt, hazard, la[(row.Write+tOff)*w:][:cnt*w], st.rowStep)
	}
}

// computePhasePlanned sweeps the tile through the compiled address
// program: zero divisions, zero map lookups, zero allocations.
func (st *rankState) computePhasePlanned(pl *distrib.TilePlan, t int64) {
	st.ev.rows(st, pl, t)
	st.markDirty((pl.MaxWrite + t*st.ChainStep + 1) * int64(st.p.Width))
	st.chargePointDelay(int64(pl.Npts))
}

// rankInit holds one rank's boundary values: for every chain slot, the value
// vectors Initial gives the sources of its boundary runs, in run order.
// at[t] is where slot t's values start.
type rankInit struct {
	once sync.Once
	vals []float64
	at   []int
}

// boundaryValues returns rank r's boundary values, evaluating Initial over
// the rank's boundary runs on first use: once per Program, not once per run.
func (p *Program) boundaryValues(r int, rp *distrib.RankPlan) *rankInit {
	ri := &p.inits[r]
	ri.once.Do(func() {
		pr := p.Dist.Protocol()
		n := p.TS.T.N
		w := p.Width
		total := 0
		ri.at = make([]int, len(rp.Slots))
		for t := range rp.Slots {
			ri.at[t] = total * w
			total += rp.Slots[t].BoundaryValues()
		}
		ri.vals = make([]float64, total*w)
		src := make(ilin.Vec, n)
		pos := 0
		for t := range rp.Slots {
			sl := &rp.Slots[t]
			for _, b := range sl.Boundary {
				uz := sl.Plan.Uz[int(b.Row)*n:]
				dep := pr.Deps[b.Dep]
				for k := range src {
					src[k] = sl.PBase[k] + uz[k] + int64(b.Off)*pr.RowStep[k] - dep[k]
				}
				for i := int32(0); i < b.N; i++ {
					p.Initial(src, ri.vals[pos:pos+w])
					pos += w
					for k := range src {
						src[k] += pr.RowStep[k]
					}
				}
			}
		}
	})
	return ri
}

// initPhasePlanned injects Initial values by replaying the slot's compiled
// boundary-read runs: one copy of precompiled values per run, no Initial
// call and no containment test.
func (st *rankState) initPhasePlanned(sl *distrib.SlotPlan, t int64) {
	if len(sl.Boundary) == 0 {
		return
	}
	pl := sl.Plan
	w := int64(st.p.Width)
	q := len(st.deps)
	tOff := t * st.ChainStep
	vals := st.init.vals[st.init.at[t]:]
	for _, b := range sl.Boundary {
		cell := (pl.Read[int(b.Row)*q+int(b.Dep)] + int64(b.Off) + tOff) * w
		nn := int64(b.N) * w
		copy(st.la[cell:cell+nn], vals[:nn])
		vals = vals[nn:]
	}
	st.markDirty((pl.MaxRead + tOff + 1) * w)
}

// writeBack copies this rank's computed values to the global data space
// via the computer-owns rule. Ranks own disjoint iteration points, so the
// concurrent writes touch disjoint memory. Each chain slot's row table is
// replayed — including the slots a chain resumed from a snapshot skipped,
// whose LDS values were restored.
func (st *rankState) writeBack(g *Global) {
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	first, last := st.ev.j, st.ev.jb
	for t := range st.Slots {
		sl := &st.Slots[t]
		pl := sl.Plan
		tOff := int64(t) * st.ChainStep
		for r, row := range pl.Rows {
			uz := pl.Uz[r*n : r*n+n]
			for k := 0; k < n; k++ {
				first[k] = sl.PBase[k] + uz[k]
				last[k] = first[k] + int64(row.N-1)*st.rowStep[k]
			}
			cell := (row.Write + tOff) * w
			g.setRow(first, last, int(row.N), st.la[cell:cell+int64(row.N)*w])
		}
	}
}
