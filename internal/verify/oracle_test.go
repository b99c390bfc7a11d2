package verify

import (
	"fmt"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// CertifyPointwise is Certify with every tile replayed point by point
// (tilePointwise): the oracle the segment replay must match, report for
// report and violation for violation.
func CertifyPointwise(ts *tiling.TiledSpace, d *distrib.Distribution) (*Report, error) {
	if ts != d.TS {
		return nil, fmt.Errorf("verify: CertifyPointwise needs the tiled space the distribution was built over")
	}
	rep := &Report{Procs: d.NumProcs()}
	if err := checkAnalysisFacts(ts); err != nil {
		return nil, err
	}
	plans := make([]*distrib.RankPlan, d.NumProcs())
	for r := range plans {
		var err error
		if plans[r], err = d.Plan(r); err != nil {
			return nil, &Violation{Rule: "schedule-edge", Rank: r, Detail: err.Error()}
		}
	}
	rp, err := newReplayer(d, plans, rep)
	if err != nil {
		return nil, err
	}
	var vio *Violation
	ts.ScanTiles(func(s ilin.Vec) bool {
		vio = rp.tilePointwise(s)
		return vio == nil
	})
	if vio != nil {
		return nil, vio
	}
	if err := rp.epilogue(); err != nil {
		return nil, err
	}
	edges := ScheduleEdges(d)
	if err := CheckSchedule(d, edges, rp.sentRegion); err != nil {
		return nil, err
	}
	rep.Messages = int64(len(edges))
	rep.Shapes = d.NumShapes()
	return rep, nil
}

// tilePointwise replays one tile with INIT and COMPUTE point by point: a
// Contains test per injected source and, per point of the walk, its reads,
// write, ownership and region membership checked one by one. It is the
// replay as it stood before tile judged segments.
func (rp *replayer) tilePointwise(s ilin.Vec) *Violation {
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

	// COMPUTE — the tile's own row walk is the reference: the plan's rows,
	// walked point by point with a cursor (row, i), must list exactly its
	// points, every dependence read must resolve to the code of its source
	// iteration, and the write claims ownership of the point. Per direction
	// the slot sends along, the walk also collects the region reference: the
	// points in the communication region, in walk order, with their cells.
	var vio *Violation
	row, i, npts := 0, 0, 0
	skipDone := func() { // move the cursor off rows it has exhausted (or that hold no point)
		for row < len(pl.Rows) && i >= int(pl.Rows[row].N) {
			row, i = row+1, 0
		}
	}
	last := n - 1
	ts.ScanTileRows(s, func(z, jp ilin.Vec, cnt int64) bool {
		for k := range g { // j = P·j^S + U·z, then one U·e_{n-1} per point
			g[k] = pS[k]
			for l, zl := range z {
				g[k] += ts.T.U.At(k, l) * zl
			}
		}
		for ; cnt > 0; cnt, jp[last] = cnt-1, jp[last]+ts.T.C[last] {
			skipDone()
			if row >= len(pl.Rows) || !g.Equal(point(row, i)) {
				vio = &Violation{Rule: "address-program", Rank: r, Tile: sl.Tile, Point: g.Clone(),
					Detail: fmt.Sprintf("point %d of the tile is missing from its compiled plan (%d points in %d rows)", npts, pl.Npts, len(pl.Rows))}
				return false
			}
			code := rp.coder.enc(g)
			for l := 0; l < q; l++ {
				c, ok := cell(pl.Read[row*q+l] + int64(i))
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
			rp.owner[code] = int32(r) + 1
			content[c] = code
		region:
			for _, snd := range sl.Sends { // j'_k ≥ cc_k on every non-mapping k where d^m is 1
				for k, e := 0, 0; k < n; k++ {
					if k != d.M {
						if d.DM[snd.Dir][e] == 1 && jp[k] < ts.CC[k] {
							continue region
						}
						e++
					}
				}
				rp.flat[snd.Dir] = append(rp.flat[snd.Dir], g...)
				rp.want[snd.Dir] = append(rp.want[snd.Dir], p.Addr.Flat(jp, 0))
			}
			rp.rep.Points++
			i++
			npts++
			for k := range g {
				g[k] += rp.ustep[k]
			}
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
