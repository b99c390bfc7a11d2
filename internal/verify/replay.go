package verify

import (
	"fmt"
	"math"
	"sort"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// pointCoder maps global iteration points to nonzero int64 codes and
// back. The box is the nest's bounding box padded by the maximum absolute
// dependence component per dimension, so every read source — including
// out-of-space points resolved by the Initial injection — has a code.
// Code 0 is reserved for "cell never written".
type pointCoder struct {
	lo   ilin.Vec
	dim  ilin.Vec
	size int64
}

func newPointCoder(ts *tiling.TiledSpace) (*pointCoder, error) {
	lo, hi, err := ts.Nest.BoundingBox()
	if err != nil {
		return nil, err
	}
	n := len(lo)
	pad := make(ilin.Vec, n)
	for l := 0; l < ts.Nest.Q(); l++ {
		dep := ts.Nest.Dep(l)
		for k := 0; k < n; k++ {
			a := dep[k]
			if a < 0 {
				a = -a
			}
			if a > pad[k] {
				pad[k] = a
			}
		}
	}
	c := &pointCoder{lo: make(ilin.Vec, n), dim: make(ilin.Vec, n), size: 1}
	for k := 0; k < n; k++ {
		c.lo[k] = lo[k] - pad[k]
		c.dim[k] = hi[k] + pad[k] - c.lo[k] + 1
		c.size *= c.dim[k]
	}
	return c, nil
}

// enc returns the (nonzero) code of point v, or 0 if v escapes the box
// (cannot happen for points reachable through one dependence hop).
func (c *pointCoder) enc(v ilin.Vec) int64 {
	var idx int64
	for k := range v {
		x := v[k] - c.lo[k]
		if x < 0 || x >= c.dim[k] {
			return 0
		}
		idx = idx*c.dim[k] + x
	}
	return idx + 1
}

// shift returns how far a code moves when its point moves by −v:
// enc(x − v) = enc(x) − shift(v) wherever x and x − v both lie in the box,
// since enc is linear over it — which, by the pad, every one-hop source of
// an in-space point does.
func (c *pointCoder) shift(v ilin.Vec) int64 {
	var s int64
	for k := range v {
		s = s*c.dim[k] + v[k]
	}
	return s
}

// dec inverts enc for display in counterexamples.
func (c *pointCoder) dec(code int64) ilin.Vec {
	idx := code - 1
	v := make(ilin.Vec, len(c.dim))
	for k := len(c.dim) - 1; k >= 0; k-- {
		v[k] = idx%c.dim[k] + c.lo[k]
		idx /= c.dim[k]
	}
	return v
}

func (c *pointCoder) describe(code int64) string {
	if code == 0 {
		return "no value (cell never written)"
	}
	return fmt.Sprintf("the value of iteration %v", c.dec(code))
}

// message is one in-flight payload on a (src, dst, tag) stream: the
// sender tile and, in pack order, the code of the iteration whose value
// each packed cell held.
type message struct {
	from    ilin.Vec
	payload []int64
}

type stream struct {
	src, dst, tag int
}

// replayer is the symbolic machine: per-rank LDS content arrays holding
// iteration codes instead of floats, per-stream FIFO queues with the exact
// semantics of the mpi package (per-pair-per-tag ordering, eager sends), and
// the ownership map of the coverage claim.
type replayer struct {
	d       *distrib.Distribution
	plans   []*distrib.RankPlan
	coder   *pointCoder
	content [][]int64
	cur     []int   // per rank: first inbound row not yet claimed
	heads   [][]int // per rank and direction: rows claimed on that stream
	owner   []int32 // per iteration code: 1 + the rank that computed it
	queues  map[stream][]message
	rep     *Report

	// U·e_{n-1}, the global step along a row, and sstep, the code's step
	// along it (enc(g + U·e_{n-1}) = enc(g) + sstep); per-point scratch: a
	// table point, the walk's point, a read source, P·j^S; per dependence
	// d_l, the code shift of a read (shift(d_l)); and per direction the
	// walk's region reference: its points, n coordinates each in flat[d], and
	// their cells in want[d].
	ustep, j, g, src, pS ilin.Vec
	sstep                int64
	depShift             []int64
	flat, want           [][]int64

	// sent[r][t·|D^m|+dir] is 1 + the region size the walk of rank r's
	// slot t counted for its send along dir, 0 where it sends none.
	sent [][]int64
	// judged holds the plans judgeSegments passed; rd is per dependence the
	// read cell of the walk's row (scratch).
	judged map[*distrib.TilePlan]bool
	rd     []int64
}

// replay executes the compiled protocol — the tables the executor runs —
// symbolically, in lexicographic tile order. Each tile runs the executor's
// phases off its rank's tables: claim the slot's inbound rows in table order
// against the stream FIFOs and unpack each by its runs + τ·ChainStep +
// DirShift; inject the boundary-read runs; walk the plan's rows with a
// cursor, segment by segment, reading and writing each row's stepped cells
// at t·ChainStep; pack each send by the plan's runs. The references the
// tables are judged against come from one walk of the tile's own rows
// (ScanTileRows), none from the tables: iteration codes of P·j^S + U·z
// (every read must resolve to its source's code, every point is computed
// once), the containment test (an injected source lies outside the space),
// and the region's points in walk order with the Addresser's cells (a
// message carries exactly its region). Every offset touched is checked
// against the rank's LDS box. A pass proves comm-set exactness
// constructively — no missing value (a miss surfaces as a wrong or absent
// code at the reading point: the counterexample), no stale reuse, FIFO
// consistency, every send consumed — about the tables themselves. It is
// pure arithmetic: no goroutines, no mpi.World.
func replay(d *distrib.Distribution, plans []*distrib.RankPlan, rep *Report) (*replayer, error) {
	rp, err := newReplayer(d, plans, rep)
	if err != nil {
		return nil, err
	}
	var vio *Violation
	d.TS.ScanTiles(func(s ilin.Vec) bool {
		vio = rp.tile(s)
		return vio == nil
	})
	if vio != nil {
		return rp, vio
	}
	return rp, rp.epilogue()
}

// newReplayer sets up the machine over d's compiled plans: empty LDS
// content, queues and ownership.
func newReplayer(d *distrib.Distribution, plans []*distrib.RankPlan, rep *Report) (*replayer, error) {
	coder, err := newPointCoder(d.TS)
	if err != nil {
		return nil, fmt.Errorf("verify: bounding box: %w", err)
	}
	rp := &replayer{
		d: d, plans: plans, coder: coder, rep: rep,
		content: make([][]int64, len(plans)),
		cur:     make([]int, len(plans)),
		heads:   make([][]int, len(plans)),
		owner:   make([]int32, coder.size+1),
		queues:  map[stream][]message{},
		sent:    make([][]int64, len(plans)),
		judged:  make(map[*distrib.TilePlan]bool, d.NumShapes()),
	}
	n := d.TS.T.N
	rp.ustep = d.TS.T.U.Col(n - 1)
	rp.sstep = coder.shift(rp.ustep)
	rp.j, rp.g, rp.src, rp.pS = make(ilin.Vec, n), make(ilin.Vec, n), make(ilin.Vec, n), make(ilin.Vec, n)
	rp.flat, rp.want = make([][]int64, len(d.DM)), make([][]int64, len(d.DM))
	deps := d.Protocol().Deps
	rp.depShift, rp.rd = make([]int64, len(deps)), make([]int64, len(deps))
	for l, dep := range deps {
		rp.depShift[l] = coder.shift(dep)
	}
	for r, p := range plans {
		rp.content[r] = make([]int64, p.Addr.Size())
		rp.heads[r] = make([]int, len(p.Rows))
		rp.sent[r] = make([]int64, len(p.Slots)*len(d.DM))
	}
	return rp, nil
}

// sentRegion returns the region size the replay's walk of tile counted for
// its send along dir, −1 when it made no such send. CheckSchedule asks it
// only about a valid tile on its rank and a direction of D^m.
func (rp *replayer) sentRegion(tile ilin.Vec, dir int) int64 {
	r, _ := rp.d.RankOfTile(tile)
	return rp.sent[r][(tile[rp.d.M]-rp.d.ChainStart[r])*int64(len(rp.d.DM))+int64(dir)] - 1
}

// tile replays one tile; s is ScanTiles' reusable buffer.
func (rp *replayer) tile(s ilin.Vec) *Violation {
	d, ts := rp.d, rp.d.TS
	r, ok := d.RankOfTile(s)
	if !ok {
		return &Violation{Rule: "coverage", Rank: -1, Tile: s.Clone(), Detail: "valid tile assigned to no processor"}
	}
	p := rp.plans[r]
	t := s[d.M] - d.ChainStart[r]
	sl := &p.Slots[t]
	if !sl.Tile.Equal(s) {
		return &Violation{Rule: "coverage", Rank: r, Tile: s.Clone(), Detail: fmt.Sprintf("chain slot %d is compiled for tile %v", t, sl.Tile)}
	}
	rp.rep.Tiles++
	pr := d.Protocol()
	pl := sl.Plan
	n, q := ts.T.N, len(pr.Deps)
	content := rp.content[r]
	tOff := t * p.ChainStep
	// cell places a slot-0 table offset at this slot; ok reports whether it
	// lands inside the rank's LDS box, and oob names the access that did not.
	cell := func(off int64) (c int64, ok bool) {
		rp.rep.Checks++
		c = off + tOff
		return c, c >= 0 && c < int64(len(content))
	}
	oob := func(what string, c int64, at ilin.Vec) *Violation {
		return &Violation{Rule: "lds-bounds", Rank: r, Tile: sl.Tile, Point: at.Clone(),
			Detail: fmt.Sprintf("%s cell %d outside LDS [0, %d)", what, c, len(content))}
	}
	j, g, src, pS := rp.j, rp.g, rp.src, rp.pS
	for k := range pS { // P·j^S
		pS[k] = 0
		for l, x := range s {
			pS[k] += ts.T.P.At(k, l) * x
		}
	}
	point := func(row, i int) ilin.Vec { // the table's global point i of row `row`
		for k := range j {
			j[k] = sl.PBase[k] + pl.Uz[row*n+k] + int64(i)*pr.RowStep[k]
		}
		return j
	}
	if len(pl.Uz) != len(pl.Rows)*n || len(pl.Read) != len(pl.Rows)*q {
		return &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: sl.PBase,
			Detail: fmt.Sprintf("row table of %d rows carries %d point and %d read-cell entries", len(pl.Rows), len(pl.Uz), len(pl.Read))}
	}
	if vio := rp.judgeSegments(r, sl); vio != nil {
		return vio
	}

	// RECEIVE — the slot's rows in table order, each against its stream's
	// FIFO head.
	for ; rp.cur[r] < len(p.Msgs) && p.Msgs[rp.cur[r]].T <= t; rp.cur[r]++ {
		m := &p.Msgs[rp.cur[r]]
		pred := s.Sub(pr.DmFulls[m.Dir])
		pred[d.M] = d.ChainStart[r] + m.Tau
		key := stream{p.RecvRank[m.Dir], r, m.Dir}
		qu := rp.queues[key]
		if h := &rp.heads[r][m.Dir]; *h >= len(p.Rows[m.Dir]) || p.Rows[m.Dir][*h] != rp.cur[r] {
			return &Violation{Rule: "fifo-order", Rank: r, Tile: sl.Tile, Point: pred,
				Detail: fmt.Sprintf("inbound row %d is not entry %d of direction %d's wire-order queue", rp.cur[r], *h, m.Dir)}
		} else {
			*h++
		}
		if len(qu) == 0 {
			return &Violation{
				Rule: "deadlock", Rank: r, Tile: sl.Tile, Point: pred,
				Detail: fmt.Sprintf("receive from rank %d (tag %d) blocks forever: the message of predecessor tile %v is never sent", key.src, m.Dir, pred),
			}
		}
		msg := qu[0]
		rp.queues[key] = qu[1:]
		if !msg.from.Equal(pred) {
			return &Violation{
				Rule: "fifo-order", Rank: r, Tile: sl.Tile, Point: pred,
				Detail: fmt.Sprintf("stream %d→%d tag %d delivers the message of tile %v where the row (τ=%d) expects tile %v's", key.src, r, m.Dir, msg.from, m.Tau, pred),
			}
		}
		if got := int64(len(msg.payload)); got != m.Count || got != m.Runs.Total {
			return &Violation{
				Rule: "comm-soundness", Rank: r, Tile: sl.Tile, Point: pred,
				Detail: fmt.Sprintf("message from tile %v carries %d values, the row expects %d and unpacks %d", pred, got, m.Count, m.Runs.Total),
			}
		}
		base := (m.Tau-t)*p.ChainStep + p.DirShift[m.Dir]
		i := 0
		for _, run := range m.Runs.Runs {
			for o := int64(0); o < run.N; o++ {
				c, ok := cell(run.Off + o + base)
				if !ok {
					return oob("unpack", c, rp.coder.dec(msg.payload[i]))
				}
				content[c] = msg.payload[i]
				i++
			}
		}
	}

	// INIT — inject codes by the boundary-read runs, exactly where the
	// executor copies Initial values; an entry whose source is inside the
	// space would overwrite a computed value with an initial one. The space
	// is convex, so a run's sources inside it are one interval of the run
	// (poly.LineInterval); the points before it are injected at once.
	for _, b := range sl.Boundary {
		if b.Row < 0 || int(b.Row) >= len(pl.Rows) || b.Dep < 0 || int(b.Dep) >= q ||
			b.Off < 0 || b.N < 1 || int64(b.Off)+int64(b.N) > int64(pl.Rows[b.Row].N) {
			return &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: sl.PBase,
				Detail: fmt.Sprintf("boundary-read run %+v lies outside the shape's %d rows × %d dependences", b, len(pl.Rows), q)}
		}
		for i, end := int64(b.Off), int64(b.Off)+int64(b.N); i < end; i++ {
			at := point(int(b.Row), int(i))
			for k := range src {
				src[k] = at[k] - pr.Deps[b.Dep][k]
			}
			good := end - i
			if lo, hi := poly.LineInterval(ts.Nest.Space.Cons, src, pr.RowStep, good); lo < hi {
				good = lo
			}
			cells := lds(content, pl.Read[int(b.Row)*q+int(b.Dep)]+i+tOff, good)
			for k := range j { // the last source
				j[k] = src[k] + int64(len(cells)-1)*pr.RowStep[k]
			}
			// With the first and the last source inside the coder's box, all
			// are, and their codes step by shift(RowStep); else go point by point.
			code, step := rp.coder.enc(src), rp.coder.shift(pr.RowStep)
			if code == 0 || rp.coder.enc(j) == 0 {
				cells = cells[:min(len(cells), 1)]
			}
			for c := range cells {
				cells[c], code = code, code+step
			}
			good = int64(len(cells))
			for k := range src {
				src[k] += good * pr.RowStep[k]
			}
			rp.rep.Checks += good
			if i += good; i == end {
				break
			}
			at = point(int(b.Row), int(i)) // src is its source
			if ts.Nest.Space.Contains(src) {
				return &Violation{Rule: "comm-soundness", Rank: r, Tile: sl.Tile, Point: at.Clone(),
					Detail: fmt.Sprintf("boundary-read run injects an initial value for dependence d_%d, whose source %v lies inside the iteration space", b.Dep+1, src)}
			}
			c, ok := cell(pl.Read[int(b.Row)*q+int(b.Dep)] + i)
			if !ok {
				return oob("initial-value", c, at)
			}
			content[c] = rp.coder.enc(src)
		}
	}

	// COMPUTE — the tile's own row walk is the reference: the plan's rows,
	// walked with a cursor (row, i) and read, as the executor reads them, at
	// their segment's offsets (reads), must list exactly its points, every
	// dependence read must resolve to the code of its source iteration, and
	// the write claims ownership of the point. Per direction the slot sends
	// along, the walk also collects the region reference: the points in the
	// communication region, in walk order, with their cells. The unit is the
	// segment, where a walk row and a plan row overlap: along its m points
	// the code steps by sstep and every cell by one, so each check is a
	// bounds test and a tight loop (segment). The good prefix is committed
	// at once and the first failing point is judged alone by the per-point
	// rule, so its violation is that rule's.
	var vio *Violation
	row, i, npts, seg := 0, 0, 0, 0
	reads := func() []int64 { // the read cells of the cursor's row: its write cell + its segment's offsets
		for sg := &pl.Segs[seg]; sg.First+len(sg.Rows) <= row; sg = &pl.Segs[seg] {
			seg++
		}
		for l, o := range pl.Segs[seg].Off {
			rp.rd[l] = pl.Rows[row].Write + o
		}
		return rp.rd
	}
	skipDone := func() { // move the cursor off rows it has exhausted (or that hold no point)
		for row < len(pl.Rows) && i >= int(pl.Rows[row].N) {
			row, i = row+1, 0
		}
	}
	last := n - 1
	// commit records the len(w) points from the cursor on as computed —
	// point k claims code + k·sstep and writes it to its cell w[k] — adds
	// them to the regions they lie in, and moves the cursor, g and jp past
	// them.
	commit := func(jp ilin.Vec, code int64, w []int64) {
		m := int64(len(w))
		for k := range w {
			rp.owner[code+int64(k)*rp.sstep] = int32(r) + 1
			w[k] = code + int64(k)*rp.sstep
		}
		jl := jp[last]
		for _, snd := range sl.Sends {
			jp[last] = jl
			for k := rp.regionFrom(jp, snd.Dir, m); k < m; k++ {
				for x := range g {
					rp.flat[snd.Dir] = append(rp.flat[snd.Dir], g[x]+k*rp.ustep[x])
				}
				jp[last] = jl + k*ts.T.C[last]
				rp.want[snd.Dir] = append(rp.want[snd.Dir], p.Addr.Flat(jp, 0))
			}
		}
		rp.rep.Points += m
		i, npts = i+int(m), npts+int(m)
		for k := range g {
			g[k] += m * rp.ustep[k]
		}
		jp[last] = jl + m*ts.T.C[last]
	}
	stepped := rp.ustep.Equal(pr.RowStep) // else the plan's row leaves the walk's after a point
	ts.ScanTileRows(s, func(z, jp ilin.Vec, cnt int64) bool {
		for k := range g { // j = P·j^S + U·z, then one U·e_{n-1} per point
			g[k] = pS[k]
			for l, zl := range z {
				g[k] += ts.T.U.At(k, l) * zl
			}
		}
		for cnt > 0 {
			skipDone()
			if row >= len(pl.Rows) || !g.Equal(point(row, i)) {
				vio = &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: g.Clone(),
					Detail: fmt.Sprintf("point %d of the tile is missing from its compiled plan (%d points in %d rows)", npts, pl.Npts, len(pl.Rows))}
				return false
			}
			m := int64(1)
			if stepped {
				m = min(cnt, int64(pl.Rows[row].N)-int64(i))
			}
			code, rd := rp.coder.enc(g), reads()
			good, w := rp.segment(content, rd, pl.Rows[row].Write, int64(i)+tOff, code, m)
			if commit(jp, code, w); good == m {
				cnt -= m
				continue
			}
			cnt -= good + 1
			code = rp.coder.enc(g) // the failing point, judged alone by the per-point rule
			for l := 0; l < q; l++ {
				c, ok := cell(rd[l] + int64(i))
				if !ok {
					vio = oob("read", c, g)
					return false
				}
				if content[c] != code-rp.depShift[l] {
					for k := range src {
						src[k] = g[k] - pr.Deps[l][k]
					}
					vio = &Violation{
						Rule: "comm-soundness", Rank: r, Tile: sl.Tile, Point: g.Clone(),
						Detail: fmt.Sprintf("read through dependence d_%d resolves to LDS cell %d holding %s; expected the value of iteration %v", l+1, c, rp.coder.describe(content[c]), src),
					}
					return false
				}
			}
			c, ok := cell(pl.Rows[row].Write + int64(i))
			if !ok {
				vio = oob("write", c, g)
				return false
			}
			if prev := rp.owner[code]; prev != 0 {
				vio = &Violation{
					Rule: "coverage", Rank: r, Tile: sl.Tile, Point: g.Clone(),
					Detail: fmt.Sprintf("iteration computed twice (ranks %d and %d)", prev-1, r),
				}
				return false
			}
			commit(jp, code, content[c:c+1])
		}
		return true
	})
	if vio != nil {
		return vio
	}
	skipDone()
	if row < len(pl.Rows) {
		return &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: point(row, i).Clone(),
			Detail: fmt.Sprintf("the plan's row %d lists a point the tile does not hold (the tile has %d points)", row, npts)}
	}
	if npts != pl.Npts || int64(npts) != sl.Npts {
		return &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: sl.PBase,
			Detail: fmt.Sprintf("tile holds %d points, its plan %d and its schedule slot %d", npts, pl.Npts, sl.Npts)}
	}

	// SEND — each message packs the plan's runs. Cell by cell they must be
	// the region's cells in walk order — none missing, extra or reordered —
	// each holding the freshly computed value of its point; so no cell is
	// packed twice either: it holds one point's value.
	for _, snd := range sl.Sends {
		dir := &pl.Dirs[snd.Dir]
		want, flat := rp.want[snd.Dir], rp.flat[snd.Dir]
		at := func(i int) ilin.Vec { // region point i, or the last one
			if i = min(i, len(want)-1); i < 0 {
				return nil
			}
			return flat[i*n : i*n+n : i*n+n]
		}
		fail := func(rule string, i int, format string, args ...any) *Violation {
			return &Violation{Rule: rule, Rank: r, Tile: sl.Tile, Point: at(i),
				Detail: fmt.Sprintf("send along %v: ", d.DM[snd.Dir]) + fmt.Sprintf(format, args...)}
		}
		if dir.Total != snd.Count || snd.Count != int64(len(want)) {
			return fail("comm-soundness", len(want), "scheduled with %d values, its runs pack %d, the region holds %d", snd.Count, dir.Total, len(want))
		}
		payload := make([]int64, 0, dir.Total)
		for ri, run := range dir.Runs {
			if run.N <= 0 {
				return fail("comm-soundness", len(payload), "run %d has non-positive length %d", ri, run.N)
			}
			for off := run.Off; off < run.Off+run.N; off++ {
				i := len(payload)
				if i == len(want) {
					return fail("comm-redundancy", i, "runs cover more cells than the region: extra cell %d in run %d", off, ri)
				}
				if want[i] != off {
					return fail("comm-soundness", i, "region point %d packs cell %d, runs pack cell %d", i, want[i], off)
				}
				c, ok := cell(off)
				if !ok {
					return oob("pack", c, at(i))
				}
				if content[c] != rp.coder.enc(at(i)) {
					return fail("comm-soundness", i, "packed value for iteration %v is %s", at(i), rp.coder.describe(content[c]))
				}
				payload = append(payload, content[c])
			}
		}
		if i := len(payload); i < len(want) {
			return fail("comm-soundness", i, "region point %d (cell %d) is missing from the run list", i, want[i])
		}
		rp.sent[r][t*int64(len(d.DM))+int64(snd.Dir)] = 1 + int64(len(want))
		rp.flat[snd.Dir], rp.want[snd.Dir] = flat[:0], want[:0]
		key := stream{r, p.SendRank[snd.Dir], snd.Dir}
		rp.queues[key] = append(rp.queues[key], message{from: sl.Tile, payload: payload})
		rp.rep.Values += dir.Total
	}
	return nil
}

// segment judges m points of a tile's walk on a rank with LDS content — a
// stretch of one walk row and one plan row — without writing: point k has
// code code + k·sstep, reads cell reads[l] + off + k through d_l and writes
// cell write + off + k. It returns how many points, from the first, pass
// every check of tile's per-point rule, and their write cells. Reads see the
// content from before the segment except where a row reads its own writes:
// with h = write − reads[l] in [1, m), point k ≥ h reads what point k − h
// wrote, its source's code exactly when h·sstep = shift(d_l).
func (rp *replayer) segment(content, reads []int64, write, off, code, m int64) (good int64, w []int64) {
	good = m
	for l, shift := range rp.depShift {
		cells := lds(content, reads[l]+off, good)
		good = int64(len(cells))
		if h := write - reads[l]; h >= 1 && h < good {
			if cells = cells[:h]; h*rp.sstep != shift {
				good = h
			}
		}
		want := code - shift
		for k, v := range cells {
			if v != want {
				good = int64(k)
				break
			}
			want += rp.sstep
		}
	}
	w = lds(content, write+off, good)
	good = int64(len(w))
	for k := range w {
		if rp.owner[code+int64(k)*rp.sstep] != 0 {
			good = int64(k)
			break
		}
	}
	rp.rep.Checks += good * int64(len(reads)+1)
	return good, w[:good]
}

// lds returns content's cells from c on, at most m of them, up to the first
// outside the rank's LDS box.
func lds(content []int64, c, m int64) []int64 {
	if c < 0 || c >= int64(len(content)) {
		return nil
	}
	return content[c:min(c+m, int64(len(content)))]
}

// regionFrom returns the first of the m points from TTIS point jp along a
// row that lies in the communication region along DM[dir] — j'_k ≥ cc_k on
// every non-mapping k where d^m is 1 — m if none does. Only j'_{n-1} moves
// along a row, so the row's share of the region is a suffix.
func (rp *replayer) regionFrom(jp ilin.Vec, dir int, m int64) int64 {
	d, last, from := rp.d, len(jp)-1, int64(0)
	for k, e := 0, 0; k <= last; k++ {
		if k == d.M {
			continue
		}
		if d.DM[dir][e] == 1 && jp[k] < d.TS.CC[k] {
			if k != last {
				return m
			}
			from = rat.CeilDiv(d.TS.CC[k]-jp[k], d.TS.T.C[k])
		}
		e++
	}
	return min(from, m)
}

// epilogue closes the exactness proof: every sent message was consumed and
// every iteration of the space was computed exactly once.
func (rp *replayer) epilogue() error {
	var leftover []stream
	for key, qu := range rp.queues {
		if len(qu) > 0 {
			leftover = append(leftover, key)
		}
	}
	if len(leftover) > 0 {
		sort.Slice(leftover, func(i, j int) bool {
			a, b := leftover[i], leftover[j]
			if a.src != b.src {
				return a.src < b.src
			}
			if a.dst != b.dst {
				return a.dst < b.dst
			}
			return a.tag < b.tag
		})
		key := leftover[0]
		msg := rp.queues[key][0]
		return &Violation{
			Rule: "comm-redundancy", Rank: key.src, Tile: msg.from, Point: rp.coder.dec(msg.payload[0]),
			Detail: fmt.Sprintf("message from tile %v to rank %d (tag %d) is sent but never received", msg.from, key.dst, key.tag),
		}
	}
	if total, err := rp.d.TS.Nest.Size(); err == nil && total != rp.rep.Points {
		return &Violation{
			Rule: "coverage", Rank: -1,
			Detail: fmt.Sprintf("%d of %d iterations computed", rp.rep.Points, total),
		}
	}
	return nil
}

// judgeSegments checks, once per plan, the row classes rank r's executor
// walks in place of slot sl's row table (distrib.TilePlan.Segs): the
// segments' windows partition Rows in order, each row's reads sit at its
// segment's offsets, so Read[r·q+l] = Rows[r].Write + Off[l], and Back is the
// least −Off[l] > 0 (math.MaxInt64 if none), the in-row distance the
// executor's chunks must not exceed.
func (rp *replayer) judgeSegments(r int, sl *distrib.SlotPlan) *Violation {
	pl, q := sl.Plan, len(rp.depShift)
	if rp.judged[pl] {
		return nil
	}
	fault := func(format string, args ...any) *Violation {
		return &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: sl.PBase, Detail: fmt.Sprintf(format, args...)}
	}
	next := 0
	for k, sg := range pl.Segs {
		if sg.First != next || len(sg.Rows) == 0 || next+len(sg.Rows) > len(pl.Rows) || len(sg.Off) != q {
			return fault("segment %d holds rows [%d, %d) at %d offsets, where the plan's rows [%d, %d) over %d dependences remain",
				k, sg.First, sg.First+len(sg.Rows), len(sg.Off), next, len(pl.Rows), q)
		}
		back := int64(math.MaxInt64)
		for _, o := range sg.Off {
			if o < 0 {
				back = min(back, -o)
			}
		}
		if sg.Back != back {
			return fault("segment %d has Back %d, its offsets %v give %d", k, sg.Back, sg.Off, back)
		}
		for i, row := range sg.Rows {
			if row != pl.Rows[next+i] {
				return fault("segment %d row %d is %+v, the plan's row %d %+v", k, i, row, next+i, pl.Rows[next+i])
			}
			for l, o := range sg.Off {
				if rd := pl.Read[(next+i)*q+l]; rd != row.Write+o {
					return fault("row %d reads d_%d at cell %d, its segment %d at %d", next+i, l+1, rd, k, row.Write+o)
				}
			}
		}
		next += len(sg.Rows)
	}
	if next != len(pl.Rows) {
		return fault("the segments hold %d of the plan's %d rows", next, len(pl.Rows))
	}
	rp.judged[pl] = true
	return nil
}
