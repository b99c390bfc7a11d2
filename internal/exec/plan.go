package exec

import (
	"sync"
	"time"

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
	pt     [][]float64 // per dependence: the current chunk's part of it
	j, jb  ilin.Vec
}

// newRowEval builds scratch for kernel k, width values per point, over rows
// of up to maxRow n-dimensional points that read through q dependences.
func newRowEval(k Kernel, width, n, q, maxRow int) *rowEval {
	views := make([][]float64, 2*q)
	js := make(ilin.Vec, 2*n)
	ev := &rowEval{width: int64(width), reads: views[:q:q], pt: views[q:], j: js[:n:n], jb: js[n:]}
	ev.fit(k.stmt, maxRow)
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
// stepped by step (only Coef reads it): ev.reads[l] holds the values read
// through dependence l and out receives the results. A read
// may alias out hazard points back (SOR's innermost dependence);
// math.MaxInt64 means none does. Point order is kept: a statement runs over
// chunks no longer than the hazard, so each read finds its point written,
// unless it is one pass (onePass): a point reads before it writes, and point
// i−hazard was written hazard points earlier.
func (ev *rowEval) row(k Kernel, cnt, hazard int64, out []float64, step ilin.Vec) {
	st := k.stmt
	if st.onePass && st.code[0].op == opSum && cnt <= int64(ev.stride) {
		st.sum.run(out, ev.regs, ev.stride, ev.reads) // the fused sum alone, straight from the reads
		return
	}
	w := ev.width
	needJ := len(st.coefs) > 0
	chunk := min(cnt, int64(ev.stride))
	if !st.onePass {
		chunk = min(chunk, hazard)
	}
	for s := int64(0); s < cnt; s += chunk {
		c := min(chunk, cnt-s)
		for l := range ev.reads {
			ev.pt[l] = ev.reads[l][s*w:][:c*w]
		}
		st.run(ev.regs, ev.stride, int(c), ev.pt, out[s*w:][:c*w], ev.j, step, ev.jb)
		if needJ {
			for d := range ev.j {
				ev.j[d] += c * step[d]
			}
		}
	}
}

// computePhasePlanned sweeps the tile through the compiled address
// program: zero divisions, zero map lookups, zero allocations. It evaluates
// the rows of pl placed at chain slot t a segment at a time, in scan order:
// across a segment each dependence reads at one offset from the written
// cell, so a row is its write cell and length, and a read Back cells back in
// the row is a hazard (row). It returns the tile's modelled CPU cost, its
// points times the rank's PointDelay, which the driver makes the rank busy
// for (group.step); the machine itself never waits.
func (st *rankState) computePhasePlanned(pl *distrib.TilePlan, t int64) time.Duration {
	ev, k := st.ev, st.p.Kernel
	w := ev.width
	n := st.p.TS.T.N
	tOff := t * st.ChainStep
	la := st.la
	ev.fit(k.stmt, st.MaxRow) // a no-op unless the program's kernel was replaced
	needJ := len(k.stmt.coefs) > 0
	for _, sg := range pl.Segs {
		for i, row := range sg.Rows {
			if needJ {
				for d, u := range pl.Uz[(sg.First+i)*n:][:n] {
					ev.j[d] = st.pBase[d] + u
				}
			}
			c, cnt := row.Write+tOff, int64(row.N)
			for l, o := range sg.Off {
				ev.reads[l] = la[(c+o)*w:][:cnt*w]
			}
			ev.row(k, cnt, sg.Back, la[c*w:][:cnt*w], st.rowStep)
		}
	}
	st.markDirty((pl.MaxWrite + tOff + 1) * w)
	return time.Duration(pl.Npts) * st.pointDelay
}

// rankInit holds one rank's boundary values: for every chain slot, the value
// vectors Initial gives the sources of its boundary runs, in run order.
// at[t] is where slot t's values start. rowAt[t][r] is where row r of slot
// t's plan lies in the Global past its box's corner (writeBack).
type rankInit struct {
	once  sync.Once
	vals  []float64
	at    []int
	rowAt [][]int64 // shared by consecutive slots of one plan
	step  int64     // a row's stride in the Global
}

// boundaryValues returns rank r's boundary values and write-back offsets,
// evaluating Initial over the rank's boundary runs on first use: once per
// Program, not once per run.
func (p *Program) boundaryValues(r int, rp *distrib.RankPlan) *rankInit {
	ri := &p.inits[r]
	ri.once.Do(func() {
		pr := p.Dist.Protocol()
		n := p.TS.T.N
		w := p.Width
		stride := make(ilin.Vec, n) // the Global's (allocGlobal), in values
		for k, s := n-1, int64(w); k >= 0; k-- {
			stride[k], s = s, s*(p.hi[k]-p.lo[k]+1)
		}
		ri.step = stride.Dot(pr.RowStep)
		total := 0
		ri.at, ri.rowAt = make([]int, len(rp.Slots)), make([][]int64, len(rp.Slots))
		for t, sl := range rp.Slots {
			ri.at[t] = total * w
			total += sl.BoundaryValues()
			if t > 0 && sl.Plan == rp.Slots[t-1].Plan {
				ri.rowAt[t] = ri.rowAt[t-1]
				continue
			}
			for r := range sl.Plan.Rows {
				ri.rowAt[t] = append(ri.rowAt[t], stride.Dot(sl.Plan.Uz[r*n:r*n+n])-stride.Dot(sl.Plan.UzLo))
			}
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
// whose LDS values were restored — at the compiled row offsets, checked
// once per slot: the plan's box, placed, holds every point of its rows.
func (st *rankState) writeBack(g *Global) {
	w := int64(st.p.Width)
	lo, hi := st.ev.j, st.ev.jb
	for t, sl := range st.Slots {
		if sl.Npts == 0 {
			continue
		}
		for k := range lo {
			lo[k], hi[k] = sl.PBase[k]+sl.Plan.UzLo[k], sl.PBase[k]+sl.Plan.UzHi[k]
		}
		base := g.index(lo)
		g.index(hi)
		tOff := int64(t) * st.ChainStep
		for r, row := range sl.Plan.Rows {
			at, nw := base+st.init.rowAt[t][r], int64(row.N)*w
			src := st.la[(row.Write+tOff)*w:][:nw]
			if st.init.step == w {
				copy(g.data[at:at+nw], src)
				continue
			}
			for i := int64(0); i < nw; i += w {
				copy(g.data[at:at+w], src[i:i+w])
				at += st.init.step
			}
		}
	}
}
