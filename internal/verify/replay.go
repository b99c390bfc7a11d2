package verify

import (
	"fmt"
	"sort"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
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
}

// replay executes the compiled protocol — the tables the executor runs —
// symbolically, in lexicographic tile order. Each tile runs the executor's
// phases off its rank's tables: claim the slot's inbound rows in table order
// against the stream FIFOs and unpack each by its runs + τ·ChainStep +
// DirShift; inject the boundary-read runs; walk the plan's rows with a
// cursor, reading and writing each row's stepped cells at t·ChainStep; pack
// each send by the plan's runs. What the tables say is
// judged against references derived independently of them: the tile's own
// point scan and iteration codes (every dependence read must resolve to
// exactly the code of its source iteration, every point is computed once),
// the containment test (an injected source must lie outside the space), and
// the CommRegion point order with the Addresser's Flat (CheckRuns: a
// message carries exactly its region, each cell once). Every offset touched
// is checked against the rank's LDS box. A pass proves comm-set exactness
// constructively — no missing value (a miss surfaces as a wrong or absent
// code at the reading point: the counterexample), no stale reuse, FIFO
// consistency, every send consumed — about the tables themselves. It is
// pure arithmetic: no goroutines, no mpi.World.
func replay(d *distrib.Distribution, plans []*distrib.RankPlan, rep *Report) error {
	coder, err := newPointCoder(d.TS)
	if err != nil {
		return fmt.Errorf("verify: bounding box: %w", err)
	}
	rp := &replayer{
		d: d, plans: plans, coder: coder, rep: rep,
		content: make([][]int64, len(plans)),
		cur:     make([]int, len(plans)),
		heads:   make([][]int, len(plans)),
		owner:   make([]int32, coder.size+1),
		queues:  map[stream][]message{},
	}
	for r, p := range plans {
		rp.content[r] = make([]int64, p.Addr.Size())
		rp.heads[r] = make([]int, len(p.Rows))
	}
	var vio *Violation
	d.TS.ScanTiles(func(s ilin.Vec) bool {
		vio = rp.tile(s)
		return vio == nil
	})
	if vio != nil {
		return vio
	}
	return rp.epilogue()
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
	j, g, src := make(ilin.Vec, n), make(ilin.Vec, n), make(ilin.Vec, n)
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
	// space would overwrite a computed value with an initial one.
	for _, b := range sl.Boundary {
		if b.Row < 0 || int(b.Row) >= len(pl.Rows) || b.Dep < 0 || int(b.Dep) >= q ||
			b.Off < 0 || b.N < 1 || int64(b.Off)+int64(b.N) > int64(pl.Rows[b.Row].N) {
			return &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: sl.PBase,
				Detail: fmt.Sprintf("boundary-read run %+v lies outside the shape's %d rows × %d dependences", b, len(pl.Rows), q)}
		}
		for i := int(b.Off); i < int(b.Off+b.N); i++ {
			at := point(int(b.Row), i)
			for k := range src {
				src[k] = at[k] - pr.Deps[b.Dep][k]
			}
			if ts.Nest.Space.Contains(src) {
				return &Violation{Rule: "comm-soundness", Rank: r, Tile: sl.Tile, Point: at.Clone(),
					Detail: fmt.Sprintf("boundary-read run injects an initial value for dependence d_%d, whose source %v lies inside the iteration space", b.Dep+1, src)}
			}
			c, ok := cell(pl.Read[int(b.Row)*q+int(b.Dep)] + int64(i))
			if !ok {
				return oob("initial-value", c, at)
			}
			content[c] = rp.coder.enc(src)
		}
	}

	// COMPUTE — the tile's own scan is the reference: the plan's rows,
	// walked point by point with a cursor (row, i), must list exactly its
	// points, every dependence read must resolve to the code of its source
	// iteration, and the write claims ownership of the point.
	var vio *Violation
	row, i, npts := 0, 0, 0
	skipDone := func() { // move the cursor off rows it has exhausted (or that hold no point)
		for row < len(pl.Rows) && i >= int(pl.Rows[row].N) {
			row, i = row+1, 0
		}
	}
	pS := ts.T.P.MulVec(s)
	ts.ScanTilePoints(s, func(z, jp ilin.Vec) bool {
		for k := range g { // j = P·j^S + U·z
			g[k] = pS[k]
			for l, zl := range z {
				g[k] += ts.T.U.At(k, l) * zl
			}
		}
		skipDone()
		if row >= len(pl.Rows) || !g.Equal(point(row, i)) {
			vio = &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: g.Clone(),
				Detail: fmt.Sprintf("point %d of the tile is missing from its compiled plan (%d points in %d rows)", npts, pl.Npts, len(pl.Rows))}
			return false
		}
		for l := 0; l < q; l++ {
			c, ok := cell(pl.Read[row*q+l] + int64(i))
			if !ok {
				vio = oob("read", c, g)
				return false
			}
			for k := range src {
				src[k] = g[k] - pr.Deps[l][k]
			}
			if want := rp.coder.enc(src); content[c] != want {
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
		code := rp.coder.enc(g)
		if prev := rp.owner[code]; prev != 0 {
			vio = &Violation{
				Rule: "coverage", Rank: r, Tile: sl.Tile, Point: g.Clone(),
				Detail: fmt.Sprintf("iteration computed twice (ranks %d and %d)", prev-1, r),
			}
			return false
		}
		rp.owner[code] = int32(r) + 1
		content[c] = code
		rp.rep.Points++
		i++
		npts++
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

	// SEND — each message packs the plan's runs; they must be exactly the
	// region in CommRegion order, each cell holding the freshly computed
	// value of its point.
	for _, snd := range sl.Sends {
		dir := &pl.Dirs[snd.Dir]
		var (
			pts  []ilin.Vec
			want []int64
		)
		d.CommRegion(s, d.DM[snd.Dir], func(z, jp ilin.Vec) bool {
			pts = append(pts, ts.GlobalOf(s, z))
			want = append(want, p.Addr.Flat(jp, 0))
			return true
		})
		if dir.Total != snd.Count || snd.Count != int64(len(pts)) {
			var at ilin.Vec
			if len(pts) > 0 {
				at = pts[len(pts)-1]
			}
			return &Violation{Rule: "comm-soundness", Rank: r, Tile: sl.Tile, Point: at,
				Detail: fmt.Sprintf("send along %v is scheduled with %d values and its runs pack %d; the region holds %d", d.DM[snd.Dir], snd.Count, dir.Total, len(pts))}
		}
		if v := CheckRuns(pts, want, dir.Runs, dir.Total); v != nil {
			v.Rank, v.Tile = r, sl.Tile
			return v
		}
		payload := make([]int64, 0, dir.Total)
		for _, run := range dir.Runs {
			for o := int64(0); o < run.N; o++ {
				g := pts[len(payload)]
				c, ok := cell(run.Off + o)
				if !ok {
					return oob("pack", c, g)
				}
				if content[c] != rp.coder.enc(g) {
					return &Violation{
						Rule: "comm-soundness", Rank: r, Tile: sl.Tile, Point: g,
						Detail: fmt.Sprintf("packed value for iteration %v is %s", g, rp.coder.describe(content[c])),
					}
				}
				payload = append(payload, content[c])
			}
		}
		key := stream{r, p.SendRank[snd.Dir], snd.Dir}
		rp.queues[key] = append(rp.queues[key], message{from: sl.Tile, payload: payload})
		rp.rep.Values += dir.Total
	}
	return nil
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
