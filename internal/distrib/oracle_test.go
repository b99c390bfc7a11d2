package distrib

import (
	"fmt"
	"reflect"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// This file keeps the per-point derivations the protocol compiler used
// before the tile table as oracles: the communication region enumerated
// point by point, its runs merged cell by cell, and the closed-form counts
// of the clamped point loops under a minimum TTIS coordinate. None of them
// reads a row scan of the tile table.

// ttisPoints walks the rows of tr's TTIS — a full tile's points — point by
// point: fn sees each lattice point z with j' = H̃'·z, in ScanTTIS order,
// and returning false stops the walk.
func ttisPoints(tr *tiling.Transform, fn func(z, jp ilin.Vec) bool) {
	last := tr.N - 1
	tr.ScanTTIS(func(z, jp ilin.Vec, n int64) bool {
		for i := int64(0); i < n; i++ {
			if !fn(z, jp) {
				return false
			}
			z[last]++
			jp[last] += tr.C[last]
		}
		return true
	})
}

// commRegion enumerates the communication points of tile s along processor
// direction d^m point by point: the clamped lattice points of s whose TTIS
// coordinate satisfies j'_k ≥ cc_k on every non-mapping dimension where d^m
// is 1 (§3.2). fn may be nil to just count.
func (d *Distribution) commRegion(s, dm ilin.Vec, fn func(z, jp ilin.Vec) bool) int64 {
	cc := d.TS.CC
	var count int64
	d.TS.ScanTilePoints(s, func(z, jp ilin.Vec) bool {
		idx := 0
		for k := 0; k < d.TS.T.N; k++ {
			if k == d.M {
				continue
			}
			if dm[idx] == 1 && jp[k] < cc[k] {
				return true
			}
			idx++
		}
		count++
		if fn != nil {
			return fn(z, jp)
		}
		return true
	})
	return count
}

// commRuns merges commRegion's flat cells into maximal contiguous runs, one
// point at a time.
func (d *Distribution) commRuns(s, dm ilin.Vec, a *Addresser) DirPlan {
	var dp DirPlan
	prev := int64(-2) // never adjacent to a real first address
	d.commRegion(s, dm, func(z, jp ilin.Vec) bool {
		flat := a.Flat(jp, 0)
		if flat == prev+1 {
			dp.Runs[len(dp.Runs)-1].N++
		} else {
			dp.Runs = append(dp.Runs, Run{Off: flat, N: 1})
		}
		prev = flat
		dp.Total++
		return true
	})
	return dp
}

// countMinJP counts the lattice points of tile jS whose TTIS coordinate
// satisfies j'_k ≥ minJP[k] for every k (nil: no constraint) from the
// clamped point-loop bounds, closing the innermost level in O(1).
func (d *Distribution) countMinJP(jS, minJP ilin.Vec) int64 {
	ts := d.TS
	n := ts.T.N
	x := make(ilin.Vec, 2*n)
	copy(x, jS)
	var count func(k int) int64
	count = func(k int) int64 {
		lo, _ := ts.Combined.Vars[n+k].EvalLower(x[:n+k])
		hi, _ := ts.Combined.Vars[n+k].EvalUpper(x[:n+k])
		var base int64
		for l := 0; l < k; l++ {
			base += ts.T.HT.At(k, l) * x[n+l]
		}
		if minJP != nil && minJP[k] > 0 {
			lo = max(lo, rat.CeilDiv(minJP[k]-base, ts.T.C[k]))
		}
		if hi < lo {
			return 0
		}
		if k == n-1 {
			return hi - lo + 1
		}
		var total int64
		for zk := lo; zk <= hi; zk++ {
			x[n+k] = zk
			total += count(k + 1)
		}
		return total
	}
	return count(0)
}

// regionCountMinJP is the closed-form size of tile s's region along d^m.
func (d *Distribution) regionCountMinJP(s, dm ilin.Vec) int64 {
	minJP := make(ilin.Vec, d.TS.T.N)
	for k, i := 0, 0; k < d.TS.T.N; k++ {
		if k == d.M {
			continue
		}
		if dm[i] == 1 {
			minJP[k] = d.TS.CC[k]
		}
		i++
	}
	return d.countMinJP(s, minJP)
}

// oracleSucc is minsucc(s, DM[dir]) with every candidate tested by the tile
// loops' bounds (TiledSpace.ValidTile), not the tile table.
func (d *Distribution) oracleSucc(s ilin.Vec, dir int) (int, bool) {
	ds := -1
	for i, dS := range d.TS.DS {
		if d.dsDir[i] == dir && (ds < 0 || dS.LexLess(d.TS.DS[ds])) && d.TS.ValidTile(s.Add(dS)) {
			ds = i
		}
	}
	return ds, ds >= 0
}

// rankTables is the part of a RankPlan the tile table derives: per slot the
// point count, the sends and the plan's region runs, and the inbound rows
// with their counts and runs.
type rankTables struct {
	Npts  []int64
	Sends [][]Send
	Dirs  [][]DirPlan
	Msgs  []InMsg
	Rows  [][]int
}

// OracleMismatch compiles rank r and compares what the tile table gave it
// with what the oracles give, as a pair of rankTables under
// reflect.DeepEqual; it returns nil when they agree.
func (d *Distribution) OracleMismatch(r int) error {
	rp, err := d.Plan(r)
	if err != nil {
		return err
	}
	got := rankTables{Msgs: rp.Msgs, Rows: rp.Rows}
	for _, sl := range rp.Slots {
		got.Npts = append(got.Npts, sl.Npts)
		got.Sends = append(got.Sends, sl.Sends)
		got.Dirs = append(got.Dirs, sl.Plan.Dirs)
	}

	ts := d.TS
	pr := d.Protocol()
	want := rankTables{Rows: make([][]int, len(d.DM))}
	for t := int64(0); t < d.ChainLen[r]; t++ {
		tile := d.TileAt(r, t)
		want.Npts = append(want.Npts, d.countMinJP(tile, nil))
		for _, si := range pr.DSOrder {
			di := pr.DSDir[si]
			if di < 0 {
				continue
			}
			pred := tile.Sub(ts.DS[si])
			if !ts.ValidTile(pred) {
				continue
			}
			if ms, ok := d.oracleSucc(pred, di); !ok || ms != si {
				continue
			}
			cnt := d.regionCountMinJP(pred, d.DM[di])
			if cnt == 0 {
				continue
			}
			want.Rows[di] = append(want.Rows[di], len(want.Msgs))
			want.Msgs = append(want.Msgs, InMsg{T: t, Tau: pred[d.M] - d.ChainStart[r], Dir: di, DS: si, Count: cnt,
				Runs: d.commRuns(pred, d.DM[di], rp.Addr)})
		}
		var sends []Send
		dirs := make([]DirPlan, len(d.DM))
		for di, dm := range d.DM {
			dirs[di] = d.commRuns(tile, dm, rp.Addr)
			if _, ok := d.oracleSucc(tile, di); !ok {
				continue
			}
			if cnt := d.regionCountMinJP(tile, dm); cnt > 0 {
				sends = append(sends, Send{Dir: di, Count: cnt})
			}
		}
		want.Sends = append(want.Sends, sends)
		want.Dirs = append(want.Dirs, dirs)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("rank %d: compiled tables\n%+v\ndiffer from the oracles'\n%+v", r, got, want)
	}
	return nil
}
