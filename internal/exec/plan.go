package exec

import (
	"sync"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// This file interprets the address level of the distribution's compiled
// protocol (distrib/protocol.go) — the static half of the executor's
// static/dynamic split, plain tables shared read-only by every rank of every
// run and read by the certifier and the simulator too. The paper's generated
// code walks the LDS with incremental (strength-reduced) addresses, never
// dividing per point; the reference executor (legacy_test.go) re-derives
// every address through rat.FloorDiv, n·(q+1) divisions per iteration point.
// Here the unit is the TTIS row: a distrib.TilePlan gives, per row, the cells
// of its first point at chain slot 0 (add t·ChainStep for any tile of the
// shape) and along the row every cell steps by one and the global iteration
// point by Protocol.RowStep. So the sweep hands the kernel whole rows — a
// statement is evaluated one operation at a time over the row (kernel.go), an
// opaque body is called per point with stepped addresses — boundary injection
// copies precompiled values over each boundary run, and write-back copies
// each row into the global array. What remains per run is the LDS, the
// message buffers and a little scratch (newRankState).

// maxChunk caps how many points of a row a statement is evaluated over at
// once, so that the register file stays cache-resident however long the row.
const maxChunk = 1024

// rowEval is a rank's scratch for evaluating rows.
type rowEval struct {
	stmt   *statement // the statement regs is laid out for
	regs   []float64  // stmt.nreg registers of stride floats, constants filled
	stride int
	scalar []float64   // stmt.nreg scalar registers for point-by-point evaluation
	reads  [][]float64 // per dependence: the current row's view of the LDS
	pt     [][]float64 // per dependence: the current chunk's (or point's) part of it
	j, jb  ilin.Vec
}

// newRowEval builds evaluation scratch for st's rank, laid out for the
// kernel the program carries now.
func newRowEval(st *rankState) *rowEval {
	n, q := st.p.TS.T.N, len(st.dps)
	views := make([][]float64, 2*q)
	js := make(ilin.Vec, 2*n)
	ev := &rowEval{reads: views[:q:q], pt: views[q:], j: js[:n:n], jb: js[n:]}
	if s := st.p.Kernel.stmt; s != nil {
		ev.fit(s, st.MaxRow)
	}
	return ev
}

// fit lays the register file out for statement s over rows of up to maxRow
// points: sized from the rank's longest row, not a fixed chunk, so a rank of
// short rows carries a few hundred bytes.
func (ev *rowEval) fit(s *statement, maxRow int) {
	stride := min(maxRow, maxChunk)
	if ev.stmt == s && ev.stride >= stride {
		return
	}
	ev.stmt, ev.stride = s, stride
	ev.regs = s.registers(stride)
	ev.scalar = s.registers(1)
}

// minChunk is the chunk length below which a statement is cheaper evaluated
// point by point than an instruction at a time.
const minChunk = 4

// rows evaluates the kernel over every row of pl placed at chain slot t, in
// scan order. A row is evaluated in point order as far as anyone can tell: a
// statement runs over chunks no longer than the distance from any read cell
// up to the write cell, so a point that reads an earlier point of its own row
// (SOR's innermost dependence) finds it written, and all of a chunk's loads
// precede its stores.
func (ev *rowEval) rows(st *rankState, pl *distrib.TilePlan, t int64) {
	k := st.p.Kernel
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(ev.reads)
	tOff := t * st.ChainStep
	la := st.la
	step := st.rowStep
	needJ := true // only Coef and opaque bodies read the iteration point
	if k.stmt != nil {
		ev.fit(k.stmt, st.MaxRow) // a no-op unless the program's kernel was replaced
		needJ = len(k.stmt.coefs) > 0
	}
	for r, row := range pl.Rows {
		cnt := int64(row.N)
		read := pl.Read[r*q : r*q+q]
		if needJ {
			uz := pl.Uz[r*n : r*n+n]
			for d := range ev.j {
				ev.j[d] = st.pBase[d] + uz[d]
			}
		}
		out := la[(row.Write+tOff)*w:][:cnt*w]
		for l, c := range read {
			ev.reads[l] = la[(c+tOff)*w:][:cnt*w]
		}
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
			continue
		}
		chunk := min(cnt, int64(ev.stride))
		for _, c := range read {
			if d := row.Write - c; d > 0 && d < chunk {
				chunk = d
			}
		}
		if chunk < minChunk {
			for s := 0; s < int(cnt); s++ {
				k.stmt.point(ev.scalar, ev.reads, out, s, ev.j)
				if needJ {
					for d := range ev.j {
						ev.j[d] += step[d]
					}
				}
			}
			continue
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
