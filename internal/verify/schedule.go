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
// Certify reports that first). From is the sender slot's tile, shared, not
// copied (Certify's replay has proved it the scanned tile): mutation tests
// clone the list before they corrupt it and hand it to CheckSchedule.
func ScheduleEdges(d *distrib.Distribution) []Edge {
	n := 0
	for r := 0; r < d.NumProcs(); r++ {
		if rp, err := d.Schedule(r); err == nil {
			for _, sl := range rp.Slots {
				n += len(sl.Sends)
			}
		}
	}
	edges := make([]Edge, 0, n)
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
		sl := &rp.Slots[s[d.M]-d.ChainStart[src]]
		for _, snd := range sl.Sends {
			e := Edge{From: sl.Tile, SrcRank: src, DstRank: rp.SendRank[snd.Dir], Dir: snd.Dir, Values: snd.Count}
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
// both; only receives block). Each edge must also carry what its sending
// tile's region holds: region(From, Dir), a count the caller takes from its
// own walk of the tile (Certify: the replay's), asked last, once the edge's
// direction, endpoints and ranks have passed.
func CheckSchedule(d *distrib.Distribution, edges []Edge, region func(tile ilin.Vec, dir int) int64) error {
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
	next := make(ilin.Vec, d.TS.T.N) // scratch: an edge's minsucc, then its neighbour-pid tile
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
		ds, ok := d.MinSucc(e.From, e.Dir)
		if ok {
			for k := range next {
				next[k] = e.From[k] + d.TS.DS[ds][k]
			}
		}
		if !ok || !next.Equal(e.To) {
			var ms ilin.Vec
			if ok {
				ms = next
			}
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
		// The tile e.From + d^m (mapping coordinate kept) lies on pid + d^m.
		for k, i := 0, 0; k < len(next); k++ {
			next[k] = e.From[k]
			if k != d.M {
				next[k] += dm[i]
				i++
			}
		}
		if want, okR := d.RankOfTile(next); !okR || want != e.DstRank {
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
		if want := region(e.From, e.Dir); want != e.Values {
			return &Violation{
				Rule: "schedule-edge", Rank: e.SrcRank, Tile: e.From, Point: e.To,
				Detail: fmt.Sprintf("edge carries %d values, communication region holds %d", e.Values, want),
			}
		}
	}
	return nil
}
