package verify

import (
	"fmt"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// Edge is one point-to-point message of the compiled §3.2 schedule: tile
// From sends its communication region along processor direction d.DM[Dir]
// and tile To = minsucc(From, d^m) performs the single receive. Values is
// the region point count (the message payload in cells).
type Edge struct {
	From, To ilin.Vec
	SrcRank  int
	DstRank  int
	Dir      int
	Values   int64
}

// ScheduleEdges reads every message of the compiled schedule off the
// distribution's tables, in sender issue order: lexicographic tile order
// and, within a tile, the slot's sends in ascending direction. The receiver
// of a stream's k-th send is the tile claiming the k-th row of the
// destination rank's queue for that direction (To stays nil when there is no
// such row; a rank whose schedule did not compile contributes no edges —
// Certify reports that first). Mutation tests corrupt this list and hand it
// to CheckSchedule.
func ScheduleEdges(d *distrib.Distribution) []Edge {
	var edges []Edge
	heads := make([][]int, d.NumProcs()) // per rank and direction: rows already paired
	for r := range heads {
		heads[r] = make([]int, len(d.DM))
	}
	d.TS.ScanTiles(func(s ilin.Vec) bool {
		src, ok := d.RankOfTile(s)
		if !ok {
			return true
		}
		rp, err := d.Schedule(src)
		if err != nil {
			return true
		}
		for _, snd := range rp.Slots[s[d.M]-d.ChainStart[src]].Sends {
			e := Edge{From: s.Clone(), SrcRank: src, DstRank: rp.SendRank[snd.Dir], Dir: snd.Dir, Values: snd.Count}
			if dp, err := d.Schedule(e.DstRank); err == nil {
				if h := &heads[e.DstRank][e.Dir]; *h < len(dp.Rows[e.Dir]) {
					e.To = dp.Slots[dp.Msgs[dp.Rows[e.Dir][*h]].T].Tile
					*h++
				}
			}
			edges = append(edges, e)
		}
		return true
	})
	return edges
}

// CheckSchedule proves the deadlock-freedom theorem for an edge list:
// every message flows from a lexicographically earlier tile to a later
// one, terminates at the minsucc receiver on the rank the executor's
// sendRank table targets, and each rank's chain is lex-ascending. Together
// these embed the send/receive pattern into lexicographic tile time, so
// the pattern is a DAG and global lex order is a deadlock-free execution
// order for both the blocking and the overlap mode (sends are eager in
// both; only receives block).
func CheckSchedule(d *distrib.Distribution, edges []Edge) error {
	for r := 0; r < d.NumProcs(); r++ {
		for t := int64(1); t < d.ChainLen[r]; t++ {
			prev, cur := d.TileAt(r, t-1), d.TileAt(r, t)
			if !prev.LexLess(cur) {
				return &Violation{
					Rule: "deadlock", Rank: r, Tile: cur,
					Detail: fmt.Sprintf("chain slot %d tile %v does not lex-follow slot %d tile %v", t, cur, t-1, prev),
				}
			}
		}
	}
	for _, e := range edges {
		if e.Dir < 0 || e.Dir >= len(d.DM) {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("direction index %d outside D^m (%d directions)", e.Dir, len(d.DM)),
			}
		}
		dm := d.DM[e.Dir]
		if n := d.TS.T.N; len(e.From) != n || len(e.To) != n || !d.TS.ValidTile(e.From) || !d.TS.ValidTile(e.To) {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: "edge endpoint is not a valid tile",
			}
		}
		if !e.From.LexLess(e.To) {
			return &Violation{
				Rule: "deadlock", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("message from tile %v to tile %v flows against lexicographic tile time", e.From, e.To),
			}
		}
		ms, ok := d.MinSucc(e.From, dm)
		if !ok || !ms.Equal(e.To) {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("receiver is not minsucc(%v, %v) = %v", e.From, dm, ms),
			}
		}
		src, okS := d.RankOfTile(e.From)
		dst, okD := d.RankOfTile(e.To)
		if !okS || !okD || src != e.SrcRank || dst != e.DstRank {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("edge ranks %d→%d disagree with tile owners %d→%d", e.SrcRank, e.DstRank, src, dst),
			}
		}
		if want, okR := d.Rank(d.PidOf(e.From).Add(dm)); !okR || want != e.DstRank {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("destination rank %d is not the pid+%v neighbour", e.DstRank, dm),
			}
		}
		if e.SrcRank == e.DstRank {
			return &Violation{
				Rule: "deadlock", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: "self-message: a rank would block receiving from itself",
			}
		}
		if want := d.CommRegionCount(e.From, dm); want != e.Values {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("edge carries %d values, communication region holds %d", e.Values, want),
			}
		}
	}
	return nil
}
