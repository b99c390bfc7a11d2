// Package verify is the static certification layer: it proves, by pure
// arithmetic over the distribution's compiled protocol
// (distrib/protocol.go: the tables internal/exec interprets) — no
// goroutines, no mpi.World, no kernel execution — that a compiled tiled
// program is correct before a single rank runs.
//
// Certify establishes three theorems per spec × tiling × rank-grid:
//
//  1. Comm-set exactness. Every value a remote iteration reads is packed
//     (soundness) and no LDS cell is packed twice (non-redundancy): each
//     message's pack runs are exactly the dependence footprint crossing
//     that tile face. Proved constructively by a symbolic replay of the
//     compiled tables (see replay.go), judged against references derived
//     independently of them by one walk of each tile's rows: iteration
//     codes, the containment test, region membership and order, and the
//     Addresser's cells. The replay judges each segment — a stretch where
//     a walk row and a plan row overlap — as arithmetic progressions, with
//     one hazard rule for a row that reads its own writes, and judges the
//     first failing point alone, so a counterexample is the one a
//     point-by-point replay names.
//
//  2. Deadlock-freedom. The send/receive pattern the tables encode embeds
//     into lexicographic tile time: every message flows from a lex-earlier
//     to a lex-later tile and each rank's chain is lex-ascending, so global
//     lex order is a topological execution order. Because sends are eager
//     (buffered) in both the blocking and the overlap mode — every send is
//     with the transport once issued — only receives block, and the embedding
//     rules out any receive-wait cycle. The replay additionally proves
//     every inbound row has a matching in-order send (no rank blocks
//     forever on a message never sent).
//
//  3. LDS bounds safety. Every offset of the compiled address programs the
//     replay resolves — unpack, initial value, read, write, pack, at every
//     chain slot — stays inside the allocated LDS box; a wrong offset shows
//     as a wrong iteration code at a concrete point.
//
// A failed proof is reported as a *Violation carrying the offending rank,
// tile and a concrete counterexample point, so the diagnostic names the
// exact iteration (or LDS cell) that would have been computed wrongly.
// Certify also re-proves the analysis-time facts (legality H·D ≥ 0,
// dependence reach, tile-dependence range) with the exact diagnostics
// tiling.Analyze uses, so the two layers share one vocabulary.
package verify

import (
	"fmt"
	"strings"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// Violation is one disproved certification claim. Rule names the theorem
// ("comm-soundness", "comm-redundancy", "fifo-order", "deadlock",
// "schedule-edge", "lds-bounds", "address-program", "coverage"), and
// Point is the concrete counterexample — a global iteration point, or the
// predecessor tile / LDS cell named in Detail when no single iteration
// identifies the failure.
type Violation struct {
	Rule   string
	Rank   int      // offending rank, -1 when not rank-specific
	Tile   ilin.Vec // offending tile, nil when not tile-specific
	Point  ilin.Vec // counterexample point
	Detail string
}

// Error renders the violation with its counterexample.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s violated", v.Rule)
	if v.Rank >= 0 {
		fmt.Fprintf(&b, " on rank %d", v.Rank)
	}
	if v.Tile != nil {
		fmt.Fprintf(&b, " at tile %v", v.Tile)
	}
	if v.Point != nil {
		fmt.Fprintf(&b, ", counterexample point %v", v.Point)
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	return b.String()
}

// Report summarizes what a successful certification covered.
type Report struct {
	Procs    int
	Tiles    int64
	Points   int64 // iteration points replayed
	Messages int64 // schedule messages proved exact
	Values   int64 // values carried by those messages
	Checks   int64 // table offsets resolved and bounds-checked
	Shapes   int   // size of the compiled shape table: (ChainLen, clamped shape) plans
}

// String renders the coverage summary.
func (r *Report) String() string {
	return fmt.Sprintf("verified: %d procs, %d tiles / %d points, %d messages / %d values exact, %d shapes, %d address facts",
		r.Procs, r.Tiles, r.Points, r.Messages, r.Values, r.Shapes, r.Checks)
}

// Certify proves the three certification theorems for the compiled program
// (ts, d) — about the distribution's compiled protocol, the tables the
// executor interprets, which it compiles here if no run has yet. ts must be
// the space d was built over. It returns a coverage report on success and
// the first *Violation (with a counterexample point) on failure.
func Certify(ts *tiling.TiledSpace, d *distrib.Distribution) (*Report, error) {
	if ts != d.TS {
		return nil, fmt.Errorf("verify: Certify needs the tiled space the distribution was built over (got a different *TiledSpace than d.TS)")
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
	// The replay goes first: the schedule's payload check reads the region
	// sizes its tile walks counted.
	rp, err := replay(d, plans, rep)
	if err != nil {
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

// checkAnalysisFacts re-proves the facts tiling.Analyze established, with
// the same diagnostics (shared via tiling's error constructors), guarding
// against a TiledSpace mutated after analysis.
func checkAnalysisFacts(ts *tiling.TiledSpace) error {
	if !ts.T.Legal(ts.Nest.Deps) {
		return tiling.ErrIllegalTransform()
	}
	for k := 0; k < ts.T.N; k++ {
		if ts.MaxDP[k] > ts.T.V[k] {
			return tiling.ErrDependenceReach(ts.MaxDP[k], int64(k), ts.T.V[k])
		}
	}
	for _, dS := range ts.DS {
		for k := 0; k < ts.T.N; k++ {
			if dS[k] < 0 || dS[k] > 1 {
				return tiling.ErrTileDepRange(dS, k)
			}
		}
		if !dS.LexPositive() {
			return tiling.ErrTileDepNotLexPositive(dS)
		}
	}
	return nil
}
