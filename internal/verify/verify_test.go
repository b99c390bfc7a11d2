package verify_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

type matrixCase struct {
	name string
	ts   *tiling.TiledSpace
	d    *distrib.Distribution
}

// matrixCases builds the full app × tiling matrix of the differential
// suite (SOR, Jacobi, ADI, Heat3D × rect and every cone-derived family).
// The certifier's schedule and comm proofs cover blocking and overlap
// modes at once: the two modes share the identical send/recv pattern and
// differ only in Send vs Isend, both eager.
func matrixCases(t testing.TB) []matrixCase {
	t.Helper()
	var out []matrixCase
	add := func(name string, app *apps.App, err error, fam apps.TilingFamily, x, y, z int64) {
		if c, ok := buildCase(t, name, app, err, fam, x, y, z); ok {
			out = append(out, c)
		}
	}
	sor, err := apps.SOR(4, 10)
	add("sor/rect", sor, err, sor.Rect, 2, 4, 4)
	add("sor/rect-ragged", sor, err, sor.Rect, 2, 3, 5)
	add("sor/nonrect", sor, err, sor.NonRect[0], 2, 4, 4)
	jac, err := apps.Jacobi(8, 12)
	add("jacobi/rect", jac, err, jac.Rect, 2, 3, 3)
	add("jacobi/nonrect", jac, err, jac.NonRect[0], 2, 4, 4)
	adi, err := apps.ADI(8, 10)
	add("adi/rect", adi, err, adi.Rect, 2, 3, 3)
	for i, fam := range adi.NonRect {
		add(fmt.Sprintf("adi/nonrect%d", i), adi, nil, fam, 2, 3, 3)
	}
	heat, err := apps.Heat3D(6, 8)
	add("heat3d/rect", heat, err, heat.Rect, 2, 2, 2)
	if len(out) < 6 {
		t.Fatalf("only %d matrix cases built — factor choices too restrictive", len(out))
	}
	return out
}

// buildCase analyzes app under fam's tiling with factors x, y, z and
// distributes it along the app's mapping dimension; ok is false (logged)
// when the tiling does not apply.
func buildCase(t testing.TB, name string, app *apps.App, err error, fam apps.TilingFamily, x, y, z int64) (c matrixCase, ok bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ts, err := tiling.Analyze(app.Nest, fam.H(x, y, z))
	if err != nil {
		t.Logf("skip %s (%s x=%d y=%d z=%d): %v", name, fam.Name, x, y, z, err)
		return c, false
	}
	m := app.MapDim
	if m < 0 {
		m = distrib.ChooseMappingDim(ts)
	}
	d, err := distrib.New(ts, m)
	if err != nil {
		t.Logf("skip %s (%s x=%d y=%d z=%d): %v", name, fam.Name, x, y, z, err)
		return c, false
	}
	return matrixCase{name, ts, d}, true
}

// coarseCase is the benchmark's jacobi_coarse plan: Jacobi 8×192 under the
// rectangular tiling (2, 102, 204), 10 tiles of ~41 600 points.
func coarseCase(t testing.TB) matrixCase {
	t.Helper()
	jac, err := apps.Jacobi(8, 192)
	c, ok := buildCase(t, "jacobi_coarse", jac, err, jac.Rect, 2, 102, 204)
	if !ok {
		t.Fatal("jacobi_coarse's tiling does not apply")
	}
	return c
}

// matrixReports pins what a certification covers per matrix case — procs,
// tiles, points, messages, values, shapes, address facts checked — as
// recorded before the certifier moved onto the compiled protocol (the first
// five; Messages feeds the exact benchmark metric verify.edges) and before
// the compiler derived its per-tile facts from one row scan (the last two).
var matrixReports = map[string][7]int64{
	"sor/rect":        {10, 36, 400, 69, 340, 25, 3520},
	"sor/rect-ragged": {12, 36, 400, 69, 380, 21, 3600},
	"sor/nonrect":     {10, 34, 400, 57, 340, 22, 3520},
	"jacobi/rect":     {43, 116, 1152, 291, 1929, 50, 11826},
	"jacobi/nonrect":  {30, 86, 1152, 197, 1436, 59, 10840},
	"adi/rect":        {16, 80, 800, 120, 480, 27, 4600},
	"adi/nonrect0":    {16, 84, 800, 111, 460, 39, 4560},
	"adi/nonrect1":    {16, 84, 800, 111, 460, 39, 4560},
	"adi/nonrect2":    {16, 98, 800, 116, 470, 56, 4580},
	"heat3d/rect":     {247, 439, 3072, 2694, 20603, 62, 71286},
}

// TestCertifyMatrix runs the static certifier over the full matrix and
// pins its coverage: every tile and every iteration point replayed, at
// least one message proved exact wherever more than one rank exists, the
// shape count equal to the compiled shape table's size, and the whole sweep
// finishing far inside the 10 s acceptance budget.
func TestCertifyMatrix(t *testing.T) {
	start := time.Now()
	for _, c := range matrixCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rep, err := verify.Certify(c.ts, c.d)
			if err != nil {
				t.Fatalf("certify: %v", err)
			}
			if got := [7]int64{int64(rep.Procs), rep.Tiles, rep.Points, rep.Messages, rep.Values, int64(rep.Shapes), rep.Checks}; got != matrixReports[c.name] {
				t.Errorf("report covers %v (procs, tiles, points, messages, values, shapes, checks), want %v", got, matrixReports[c.name])
			}
			if rep.Shapes != c.d.NumShapes() {
				t.Errorf("report counts %d shapes, the compiled shape table holds %d", rep.Shapes, c.d.NumShapes())
			}
			if rep.Tiles != c.ts.NumTiles() {
				t.Errorf("replayed %d tiles, space has %d", rep.Tiles, c.ts.NumTiles())
			}
			if rep.Points != c.ts.TotalPoints() {
				t.Errorf("replayed %d points, space has %d", rep.Points, c.ts.TotalPoints())
			}
			if rep.Procs > 1 && rep.Messages == 0 {
				t.Errorf("%d procs but no messages certified", rep.Procs)
			}
			if rep.Checks == 0 || rep.Shapes == 0 {
				t.Errorf("empty certification: %+v", rep)
			}
			t.Logf("%s: %s", c.name, rep)
		})
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("matrix certification took %v, over the 10s budget", el)
	}
}

// TestCoderShiftMatchesEnc: over the matrix, the code the replay expects
// for a read through d_l, enc(g) − shift(d_l), is the code of the read's
// source, enc(g − d_l), at every point g of the space.
func TestCoderShiftMatchesEnc(t *testing.T) {
	for _, c := range matrixCases(t) {
		pairs, err := verify.CheckCoderShifts(c.ts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := c.ts.TotalPoints() * int64(c.ts.Nest.Q()); pairs != want {
			t.Fatalf("%s: checked %d (point, dependence) pairs, want %d", c.name, pairs, want)
		}
	}
}

// firstMessageTile finds a tile that sends at least one message, with its
// direction index — the mutation target.
func firstMessageTile(t *testing.T, d *distrib.Distribution) (tile ilin.Vec, dir int) {
	t.Helper()
	dir = -1
	d.TS.ScanTiles(func(s ilin.Vec) bool {
		r, _ := d.RankOfTile(s)
		rp, err := d.Schedule(r)
		if err != nil {
			t.Fatal(err)
		}
		if sends := rp.Slots[s[d.M]-d.ChainStart[r]].Sends; len(sends) > 0 {
			tile, dir = s.Clone(), sends[0].Dir
			return false
		}
		return true
	})
	if dir < 0 {
		t.Fatal("no communicating tile in the space")
	}
	return tile, dir
}

// region lists tile's communication region along DM[dir] point by point:
// each point's global iteration and, with an addr, the flat cell addr maps
// it to.
func region(d *distrib.Distribution, tile ilin.Vec, dir int, addr *distrib.Addresser) (pts []ilin.Vec, cells []int64) {
	dm := d.DM[dir]
	d.TS.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
		for k, i := 0, 0; k < len(jp); k++ {
			if k == d.M {
				continue
			}
			if dm[i] == 1 && jp[k] < d.TS.CC[k] {
				return true
			}
			i++
		}
		pts = append(pts, d.TS.GlobalOf(tile, z))
		if addr != nil {
			cells = append(cells, addr.Flat(jp, 0))
		}
		return true
	})
	return pts, cells
}

// regionSize counts tile's region along DM[dir] point by point: the
// reference CheckSchedule checks payloads against.
func regionSize(d *distrib.Distribution) func(ilin.Vec, int) int64 {
	return func(tile ilin.Vec, dir int) int64 {
		pts, _ := region(d, tile, dir, nil)
		return int64(len(pts))
	}
}

// TestMutationCorruptedRunRejected: a tile's compiled pack runs are its
// region's cells, point by point, in maximal runs; corrupting them in the
// compiled plan must make Certify reject it, naming a counterexample point.
func TestMutationCorruptedRunRejected(t *testing.T) {
	// target returns a fresh copy of the sor/rect case with a communicating
	// tile's compiled region along dir.
	target := func(t *testing.T) (matrixCase, ilin.Vec, int, *distrib.DirPlan) {
		c := matrixCases(t)[0]
		tile, dir := firstMessageTile(t, c.d)
		r, _ := c.d.RankOfTile(tile)
		rp, err := c.d.Plan(r)
		if err != nil {
			t.Fatal(err)
		}
		return c, tile, dir, &rp.Slots[tile[c.d.M]-c.d.ChainStart[r]].Plan.Dirs[dir]
	}
	c, tile, dir, dp := target(t)
	r, _ := c.d.RankOfTile(tile)
	_, want := region(c.d, tile, dir, c.d.Addresser(r))
	var got []int64
	for i, run := range dp.Runs {
		if i > 0 && dp.Runs[i-1].Off+dp.Runs[i-1].N == run.Off {
			t.Fatalf("runs %d and %d of %+v are adjacent (not maximal)", i-1, i, dp.Runs)
		}
		for k := int64(0); k < run.N; k++ {
			got = append(got, run.Off+k)
		}
	}
	if !slices.Equal(got, want) || dp.Total != int64(len(want)) {
		t.Fatalf("compiled runs %+v (total %d) pack cells %v, the region's are %v", dp.Runs, dp.Total, got, want)
	}
	if _, err := verify.Certify(c.ts, c.d); err != nil {
		t.Fatalf("pristine runs rejected: %v", err)
	}

	for name, mutate := range map[string]func([]distrib.Run) []distrib.Run{
		"shifted-offset": func(rs []distrib.Run) []distrib.Run {
			rs[0].Off++ // pack starts one cell late: first value missing
			return rs
		},
		"dropped-tail": func(rs []distrib.Run) []distrib.Run {
			rs[len(rs)-1].N-- // last value never sent
			return rs
		},
		"doubled-run": func(rs []distrib.Run) []distrib.Run {
			return append(rs, rs[0]) // first run's cells sent twice
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, _, _, dp := target(t)
			dp.Runs = mutate(slices.Clone(dp.Runs))
			_, err := verify.Certify(c.ts, c.d)
			var v *verify.Violation
			if !errors.As(err, &v) {
				t.Fatalf("corrupted run list accepted (err = %v)", err)
			}
			if v.Point == nil || !strings.Contains(v.Error(), "counterexample point") {
				t.Errorf("rejection carries no counterexample point: %v", v)
			}
			if got := pin(v); got != runPins[name] {
				t.Errorf("rejected as %s, pinned %s", got, runPins[name])
			}
			t.Logf("rejected: %v", v)
		})
	}
}

// pin renders what the mutation tests pin of a violation: its rule, rank,
// tile and counterexample point.
func pin(v *verify.Violation) string {
	return fmt.Sprintf("%s|%d|%v|%v", v.Rule, v.Rank, v.Tile, v.Point)
}

// runPins, schedulePins and rowPins are the violations each mutation drew
// from the per-point replay, recorded before the replay judged segments.
var runPins = map[string]string{
	"doubled-run":    "comm-redundancy|0|(0, 0, 0)|(1, 3, 3)",
	"dropped-tail":   "comm-soundness|0|(0, 0, 0)|(1, 3, 3)",
	"shifted-offset": "comm-soundness|0|(0, 0, 0)|(1, 3, 3)",
}

var schedulePins = map[string]string{
	"inflated-payload": "schedule-edge|0|(0, 0, 0)|(0, 1, 0)",
	"reversed-edge":    "deadlock|1|(0, 1, 0)|(0, 0, 0)",
	"wrong-receiver":   "schedule-edge|0|(0, 0, 0)|(0, 1, 1)",
}

var rowPins = map[string]string{
	"boundary-run-too-long":   "comm-soundness|9|(2, 3, 1)|(4, 12, 10)",
	"boundary-run-too-short":  "comm-soundness|9|(2, 3, 1)|(4, 14, 11)",
	"dropped-boundary-entry":  "comm-soundness|9|(2, 3, 1)|(4, 12, 9)",
	"dropped-inbound-row":     "comm-soundness|9|(2, 3, 1)|(4, 12, 9)",
	"inner-row-one-longer":    "address-program|9|(2, 3, 1)|(4, 13, 9)",
	"row-one-longer":          "address-program|9|(2, 3, 3)|(4, 14, 19)",
	"row-one-shorter":         "address-program|9|(2, 3, 3)|(4, 12, 16)",
	"row-start-off-by-a-step": "address-program|9|(2, 3, 3)|(4, 14, 16)",
	"shifted-readoff":         "comm-soundness|9|(2, 3, 3)|(4, 14, 16)",
	"shrunk-pack-run":         "comm-soundness|8|(2, 2, 1)|(4, 11, 11)",
	"spurious-boundary-entry": "comm-soundness|9|(2, 3, 1)|(4, 12, 9)",
	"swapped-rows":            "fifo-order|9|(2, 3, 1)|(2, 2, 2)",
	"wrong-dirshift":          "comm-soundness|9|(2, 3, 1)|(4, 12, 9)",
	"wrong-tau":               "fifo-order|9|(2, 3, 3)|(1, 2, 2)",
}

// TestMutationCorruptedScheduleRejected corrupts one schedule edge and
// asserts CheckSchedule rejects the pattern, reversed edges specifically
// as a deadlock with a counterexample.
func TestMutationCorruptedScheduleRejected(t *testing.T) {
	c := matrixCases(t)[0]
	edges := verify.ScheduleEdges(c.d)
	if len(edges) == 0 {
		t.Fatal("no schedule edges in the matrix case")
	}
	if err := verify.CheckSchedule(c.d, edges, regionSize(c.d)); err != nil {
		t.Fatalf("pristine schedule rejected: %v", err)
	}

	mutations := map[string]func([]verify.Edge) []verify.Edge{
		"reversed-edge": func(es []verify.Edge) []verify.Edge {
			es[0].From, es[0].To = es[0].To, es[0].From
			es[0].SrcRank, es[0].DstRank = es[0].DstRank, es[0].SrcRank
			return es
		},
		"wrong-receiver": func(es []verify.Edge) []verify.Edge {
			es[0].To = es[0].To.Clone()
			es[0].To[len(es[0].To)-1]++ // no longer minsucc
			return es
		},
		"inflated-payload": func(es []verify.Edge) []verify.Edge {
			es[0].Values++
			return es
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			mutated := mutate(append([]verify.Edge(nil), edges...))
			err := verify.CheckSchedule(c.d, mutated, regionSize(c.d))
			if err == nil {
				t.Fatal("corrupted schedule accepted")
			}
			if !strings.Contains(err.Error(), "counterexample point") {
				t.Errorf("rejection carries no counterexample point: %v", err)
			}
			if name == "reversed-edge" && !strings.Contains(err.Error(), "deadlock") {
				t.Errorf("reversed edge not reported as a deadlock: %v", err)
			}
			var v *verify.Violation
			if !errors.As(err, &v) || pin(v) != schedulePins[name] {
				t.Errorf("rejected as %v, pinned %s", err, schedulePins[name])
			}
			t.Logf("rejected: %v", err)
		})
	}
}

// TestCertifyRejectsMutatedSpace mutates the analyzed space itself — the
// kind of corruption Certify sees end-to-end — and asserts rejection with
// the shared tiling diagnostics.
func TestCertifyRejectsMutatedSpace(t *testing.T) {
	c := matrixCases(t)[0]
	saved := c.ts.DS[0].Clone()
	c.ts.DS[0][0] = 2 // outside {0,1}: §3.2 cannot express it
	_, err := verify.Certify(c.ts, c.d)
	c.ts.DS[0] = saved
	if err == nil {
		t.Fatal("mutated tile-dependence matrix accepted")
	}
	if !strings.Contains(err.Error(), "component outside {0,1}") {
		t.Errorf("expected the shared tiling diagnostic, got: %v", err)
	}
}

// TestCertifyRejectsForeignSpace: Certify(ts, d) with a space other than the
// one d was built over would mix two spaces; it must refuse before any work.
func TestCertifyRejectsForeignSpace(t *testing.T) {
	cs := matrixCases(t)
	if _, err := verify.Certify(cs[1].ts, cs[0].d); err == nil || !strings.Contains(err.Error(), "different *TiledSpace") {
		t.Fatalf("foreign space accepted: %v", err)
	}
	if cs[0].d.CompileSteps() != 0 {
		t.Error("the refused certification compiled plans first")
	}
}

// TestCertifySurfacesChainError: a chain whose compilation failed (a
// neighbour processor without a rank) is reported as the compiler's error.
func TestCertifySurfacesChainError(t *testing.T) {
	c := matrixCases(t)[0]
	rp, err := c.d.Schedule(1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Err = errors.New("distrib: rank 1: successor pid of tile [0 0 0] along [1 0] has no rank")
	_, err = verify.Certify(c.ts, c.d)
	var v *verify.Violation
	if !errors.As(err, &v) || v.Rule != "schedule-edge" || v.Rank != 1 || !strings.Contains(v.Detail, rp.Err.Error()) {
		t.Fatalf("got %v, want a schedule-edge violation on rank 1 carrying the chain's error", err)
	}
}

// TestMutationCompiledRowRejected corrupts one row of the distribution's
// cached compiled protocol — the tables the executor would then run — in
// each of the ways a buggy plan compiler could, and asserts Certify rejects
// every one with a counterexample point.
func TestMutationCompiledRowRejected(t *testing.T) {
	// plans compiles every chain of a fresh copy of the sor/nonrect case.
	plans := func(t *testing.T) (matrixCase, []*distrib.RankPlan) {
		c := matrixCases(t)[2]
		out := make([]*distrib.RankPlan, c.d.NumProcs())
		for r := range out {
			var err error
			if out[r], err = c.d.Plan(r); err != nil {
				t.Fatal(err)
			}
		}
		return c, out
	}
	// find returns the first rank, in reverse, for which pick returns true.
	find := func(t *testing.T, ps []*distrib.RankPlan, pick func(*distrib.RankPlan) bool) {
		for r := len(ps) - 1; r >= 0; r-- {
			if pick(ps[r]) {
				return
			}
		}
		t.Fatal("fixture has no row to corrupt")
	}
	// lastRow corrupts the last row of the last slot's plan of the last rank
	// that has one.
	lastRow := func(t *testing.T, ps []*distrib.RankPlan, corrupt func(pl *distrib.TilePlan, r int)) {
		find(t, ps, func(rp *distrib.RankPlan) bool {
			pl := rp.Slots[len(rp.Slots)-1].Plan
			if len(pl.Rows) == 0 {
				return false
			}
			corrupt(pl, len(pl.Rows)-1)
			return true
		})
	}
	// boundaryRun corrupts the first boundary-read run corrupt accepts.
	boundaryRun := func(t *testing.T, ps []*distrib.RankPlan, corrupt func(*distrib.SlotPlan, *distrib.BoundaryRun) bool) {
		find(t, ps, func(rp *distrib.RankPlan) bool {
			for i := range rp.Slots {
				sl := &rp.Slots[i]
				for bi := range sl.Boundary {
					if corrupt(sl, &sl.Boundary[bi]) {
						return true
					}
				}
			}
			return false
		})
	}
	// sameDir returns two rows of one direction on rp.
	sameDir := func(rp *distrib.RankPlan) (int, int, bool) {
		for _, rows := range rp.Rows {
			if len(rows) >= 2 {
				return rows[0], rows[1], true
			}
		}
		return 0, 0, false
	}
	mutations := map[string]func(*testing.T, matrixCase, []*distrib.RankPlan){
		"shifted-readoff": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool { // a row's first read cell + 1
				pl := rp.Slots[len(rp.Slots)-1].Plan
				if len(pl.Read) == 0 {
					return false
				}
				pl.Read[len(pl.Read)-1]++
				return true
			})
		},
		"row-one-longer": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			lastRow(t, ps, func(pl *distrib.TilePlan, r int) { pl.Rows[r].N++ })
		},
		"row-one-shorter": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			lastRow(t, ps, func(pl *distrib.TilePlan, r int) { pl.Rows[r].N-- })
		},
		"inner-row-one-longer": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				pl := rp.Slots[0].Plan
				if len(pl.Rows) < 2 {
					return false
				}
				pl.Rows[0].N++
				return true
			})
		},
		"row-start-off-by-a-step": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			step := c.d.Protocol().RowStep
			lastRow(t, ps, func(pl *distrib.TilePlan, r int) { // first-point U·z one point along the row
				for k, s := range step {
					pl.Uz[r*len(step)+k] += s
				}
			})
		},
		"boundary-run-too-long": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			boundaryRun(t, ps, func(sl *distrib.SlotPlan, b *distrib.BoundaryRun) bool {
				if b.Off+b.N >= sl.Plan.Rows[b.Row].N {
					return false // would leave the row: pick one that stays inside it
				}
				b.N++
				return true
			})
		},
		"boundary-run-too-short": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			boundaryRun(t, ps, func(sl *distrib.SlotPlan, b *distrib.BoundaryRun) bool {
				if b.N < 2 {
					return false
				}
				b.N--
				return true
			})
		},
		"dropped-boundary-entry": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				for i := range rp.Slots {
					if sl := &rp.Slots[i]; len(sl.Boundary) > 0 {
						sl.Boundary = sl.Boundary[1:]
						return true
					}
				}
				return false
			})
		},
		"spurious-boundary-entry": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				q := int32(c.ts.Nest.Q())
				for i := range rp.Slots {
					sl := &rp.Slots[i]
					for ri := int32(0); int(ri) < len(sl.Plan.Read); ri++ {
						b := distrib.BoundaryRun{Row: ri / q, Off: 0, N: 1, Dep: ri % q}
						if !slices.ContainsFunc(sl.Boundary, func(x distrib.BoundaryRun) bool {
							return x.Row == b.Row && x.Dep == b.Dep && x.Off == 0
						}) { // the row's first read of a computed (or received) value
							sl.Boundary = append([]distrib.BoundaryRun{b}, sl.Boundary...)
							return true
						}
					}
				}
				return false
			})
		},
		"dropped-inbound-row": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				if len(rp.Msgs) == 0 {
					return false
				}
				rp.Msgs = rp.Msgs[1:]
				for di := range rp.Rows { // keep the per-direction queues consistent
					rp.Rows[di] = rp.Rows[di][:0]
				}
				for i, m := range rp.Msgs {
					rp.Rows[m.Dir] = append(rp.Rows[m.Dir], i)
				}
				return true
			})
		},
		"swapped-rows": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				a, b, ok := sameDir(rp)
				if ok { // each row now claims the other's message
					ma, mb := &rp.Msgs[a], &rp.Msgs[b]
					ma.Tau, mb.Tau = mb.Tau, ma.Tau
					ma.Count, mb.Count = mb.Count, ma.Count
					ma.Runs, mb.Runs = mb.Runs, ma.Runs
				}
				return ok
			})
		},
		"wrong-tau": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				if len(rp.Msgs) == 0 {
					return false
				}
				rp.Msgs[len(rp.Msgs)-1].Tau--
				return true
			})
		},
		"shrunk-pack-run": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				for i := range rp.Slots {
					if sl := &rp.Slots[i]; len(sl.Sends) > 0 {
						dir := &sl.Plan.Dirs[sl.Sends[0].Dir]
						dir.Runs[len(dir.Runs)-1].N--
						dir.Total--
						return true
					}
				}
				return false
			})
		},
		"read-ahead-in-row": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			lastRow(t, ps, func(pl *distrib.TilePlan, r int) { // d_1 reads the cell the row's next point writes
				if pl.Rows[r].N < 2 {
					t.Fatal("fixture's last row holds one point")
				}
				pl.Read[r*c.ts.Nest.Q()] = pl.Rows[r].Write + 1
			})
		},
		"in-row-read-one-further-back": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			q := c.ts.Nest.Q()
			find(t, ps, func(rp *distrib.RankPlan) bool { // a read of an earlier point of its own row
				for i := range rp.Slots {
					pl := rp.Slots[i].Plan
					for ri, row := range pl.Rows {
						for l := 0; l < q; l++ {
							if h := row.Write - pl.Read[ri*q+l]; h >= 1 && h+1 < int64(row.N) {
								pl.Read[ri*q+l]--
								return true
							}
						}
					}
				}
				return false
			})
		},
		"wrong-rowstep": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			step := c.d.Protocol().RowStep
			step[len(step)-1]++
		},
		"wrong-dirshift": func(t *testing.T, c matrixCase, ps []*distrib.RankPlan) {
			find(t, ps, func(rp *distrib.RankPlan) bool {
				if len(rp.Msgs) == 0 {
					return false
				}
				rp.DirShift[rp.Msgs[0].Dir]++
				return true
			})
		},
	}
	c, _ := plans(t)
	if _, err := verify.Certify(c.ts, c.d); err != nil {
		t.Fatalf("pristine tables rejected: %v", err)
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c, ps := plans(t)
			mutate(t, c, ps)
			_, err := verify.Certify(c.ts, c.d)
			var v *verify.Violation
			if !errors.As(err, &v) {
				t.Fatalf("corrupted table accepted (err = %v)", err)
			}
			if v.Point == nil || !strings.Contains(v.Error(), "counterexample point") {
				t.Errorf("rejection carries no counterexample point: %v", v)
			}
			if want, ok := rowPins[name]; ok && pin(v) != want {
				t.Errorf("rejected as %s, pinned %s", pin(v), want)
			}
			if _, perr := verify.CertifyPointwise(c.ts, c.d); !reflect.DeepEqual(err, perr) {
				t.Errorf("rejected with %v, the per-point replay with %v", err, perr)
			}
			t.Logf("rejected: %v", v)
		})
	}
}

// TestRowReplayMatchesPointwise: the replay judges segments, the oracle
// (CertifyPointwise) judges points; both must give the same report, or the
// same violation, over the matrix, over jacobi_coarse's plan, and over a
// seeded battery of single-entry corruptions of freshly compiled plans
// (corruptEntry).
func TestRowReplayMatchesPointwise(t *testing.T) {
	same := func(t *testing.T, what string, c matrixCase) error {
		t.Helper()
		rep, err := verify.Certify(c.ts, c.d)
		prep, perr := verify.CertifyPointwise(c.ts, c.d)
		if !reflect.DeepEqual(rep, prep) || !reflect.DeepEqual(err, perr) {
			t.Fatalf("%s: segments give %v, %v; points give %v, %v", what, rep, err, prep, perr)
		}
		return err
	}
	cases := matrixCases(t)
	for _, c := range append(cases, coarseCase(t)) {
		if err := same(t, c.name, c); err != nil {
			t.Fatalf("%s: pristine tables rejected: %v", c.name, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	const trials = 400
	rejected := 0
	for trial := 0; trial < trials; {
		base := cases[rng.Intn(len(cases))]
		d, err := distrib.New(base.ts, base.d.M)
		if err != nil {
			t.Fatal(err)
		}
		plans := make([]*distrib.RankPlan, d.NumProcs())
		for r := range plans {
			if plans[r], err = d.Plan(r); err != nil {
				t.Fatal(err)
			}
		}
		what, ok := corruptEntry(rng, d, plans, trial, base.ts.Nest.Q())
		if !ok {
			continue // the drawn slot has no such entry: draw again
		}
		if same(t, base.name+": "+what, matrixCase{base.name, base.ts, d}) != nil {
			rejected++
		}
		trial++
	}
	if rejected < trials*9/10 { // some corruptions leave a correct program: a read cell moved with its own injection
		t.Errorf("only %d of %d corruptions rejected", rejected, trials)
	}
	t.Logf("%d of %d corruptions rejected", rejected, trials)
}

// corruptEntry changes one entry, drawn by rng, of d's compiled tables:
// ±1 on a slot's read cell, row length, write cell, row-start component,
// boundary-run offset or length; a read or write cell moved by the LDS
// size; a row start moved far outside the space; or ±1 on a component of
// the protocol's row step. Which kind cycles with trial. It reports what it
// changed, or false when the drawn slot has no entry of that kind.
func corruptEntry(rng *rand.Rand, d *distrib.Distribution, plans []*distrib.RankPlan, trial, q int) (string, bool) {
	rp := plans[rng.Intn(len(plans))]
	if len(rp.Slots) == 0 {
		return "", false
	}
	sl := &rp.Slots[rng.Intn(len(rp.Slots))]
	pl, delta := sl.Plan, int64(1-2*rng.Intn(2))
	kind := trial % 10
	switch {
	case kind == 6 || kind == 7:
		delta *= rp.Addr.Size()
	case kind == 8:
		delta *= 1000
	}
	if n := [...]int{len(pl.Read), len(pl.Rows), len(pl.Rows), len(pl.Uz), len(sl.Boundary), len(sl.Boundary),
		len(pl.Read), len(pl.Rows), len(pl.Uz), 1}[kind]; n == 0 {
		return "", false
	}
	var what string
	switch kind {
	case 0, 6:
		i := rng.Intn(len(pl.Read))
		pl.Read[i] += delta
		what = fmt.Sprintf("Read[%d] (row %d, d_%d)", i, i/q, i%q+1)
	case 1:
		i := rng.Intn(len(pl.Rows))
		pl.Rows[i].N += int32(delta)
		what = fmt.Sprintf("Rows[%d].N", i)
	case 2, 7:
		i := rng.Intn(len(pl.Rows))
		pl.Rows[i].Write += delta
		what = fmt.Sprintf("Rows[%d].Write", i)
	case 3, 8:
		i := rng.Intn(len(pl.Uz))
		pl.Uz[i] += delta
		what = fmt.Sprintf("Uz[%d]", i)
	case 4:
		i := rng.Intn(len(sl.Boundary))
		sl.Boundary[i].Off += int32(delta)
		what = fmt.Sprintf("Boundary[%d].Off", i)
	case 5:
		i := rng.Intn(len(sl.Boundary))
		sl.Boundary[i].N += int32(delta)
		what = fmt.Sprintf("Boundary[%d].N", i)
	case 9:
		step := d.Protocol().RowStep
		k := rng.Intn(len(step))
		step[k] += delta
		return fmt.Sprintf("RowStep[%d] %+d", k, delta), true
	}
	return fmt.Sprintf("%s %+d on slot %v", what, delta, sl.Tile), true
}

// BenchmarkCertify times Certify on warm distributions — every chain
// already compiled, as after a run — so it measures the certifier alone: the
// replay's tile walks and the schedule check. /matrix certifies the whole
// matrix per iteration, /coarse jacobi_coarse's plan.
func BenchmarkCertify(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cases []matrixCase
	}{{"matrix", matrixCases(b)}, {"coarse", []matrixCase{coarseCase(b)}}} {
		b.Run(bc.name, func(b *testing.B) {
			for _, c := range bc.cases {
				if _, err := verify.Certify(c.ts, c.d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range bc.cases {
					if _, err := verify.Certify(c.ts, c.d); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
