package verify_test

import (
	"errors"
	"fmt"
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
func matrixCases(t *testing.T) []matrixCase {
	t.Helper()
	var out []matrixCase
	add := func(name string, app *apps.App, err error, fam apps.TilingFamily, x, y, z int64) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts, err := tiling.Analyze(app.Nest, fam.H(x, y, z))
		if err != nil {
			t.Logf("skip %s (%s x=%d y=%d z=%d): %v", name, fam.Name, x, y, z, err)
			return
		}
		m := app.MapDim
		if m < 0 {
			m = distrib.ChooseMappingDim(ts)
		}
		d, err := distrib.New(ts, m)
		if err != nil {
			t.Logf("skip %s (%s x=%d y=%d z=%d): %v", name, fam.Name, x, y, z, err)
			return
		}
		out = append(out, matrixCase{name, ts, d})
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

// matrixReports pins what a certification covers per matrix case — procs,
// tiles, points, messages, values — as recorded before the certifier moved
// onto the compiled protocol (Messages feeds the exact benchmark metric
// verify.edges).
var matrixReports = map[string][5]int64{
	"sor/rect":        {10, 36, 400, 69, 340},
	"sor/rect-ragged": {12, 36, 400, 69, 380},
	"sor/nonrect":     {10, 34, 400, 57, 340},
	"jacobi/rect":     {43, 116, 1152, 291, 1929},
	"jacobi/nonrect":  {30, 86, 1152, 197, 1436},
	"adi/rect":        {16, 80, 800, 120, 480},
	"adi/nonrect0":    {16, 84, 800, 111, 460},
	"adi/nonrect1":    {16, 84, 800, 111, 460},
	"adi/nonrect2":    {16, 98, 800, 116, 470},
	"heat3d/rect":     {247, 439, 3072, 2694, 20603},
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
			if got := [5]int64{int64(rep.Procs), rep.Tiles, rep.Points, rep.Messages, rep.Values}; got != matrixReports[c.name] {
				t.Errorf("report covers %v (procs, tiles, points, messages, values), want %v", got, matrixReports[c.name])
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

// firstMessageTile finds a tile that sends at least one message, with its
// direction index — the mutation target.
func firstMessageTile(t *testing.T, d *distrib.Distribution) (tile ilin.Vec, dir int) {
	t.Helper()
	dir = -1
	d.TS.ScanTiles(func(s ilin.Vec) bool {
		for i, dm := range d.DM {
			if d.HasSuccessor(s, dm) && d.CommRegionCount(s, dm) > 0 {
				tile, dir = s.Clone(), i
				return false
			}
		}
		return true
	})
	if dir < 0 {
		t.Fatal("no communicating tile in the space")
	}
	return tile, dir
}

// TestMutationCorruptedRunRejected corrupts one CommRuns run and asserts
// the verifier rejects the plan naming a counterexample point.
func TestMutationCorruptedRunRejected(t *testing.T) {
	c := matrixCases(t)[0]
	tile, dir := firstMessageTile(t, c.d)
	r, _ := c.d.RankOfTile(tile)
	addr := c.d.Addresser(r)
	var (
		want []int64
		pts  []ilin.Vec
	)
	c.d.CommRegion(tile, c.d.DM[dir], func(z, jp ilin.Vec) bool {
		want = append(want, addr.Flat(jp, 0))
		pts = append(pts, c.ts.GlobalOf(tile, z))
		return true
	})
	runs, total := c.d.CommRuns(tile, c.d.DM[dir], addr)
	if v := verify.CheckRuns(pts, want, runs, total); v != nil {
		t.Fatalf("pristine runs rejected: %v", v)
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
			mutated := mutate(append([]distrib.Run(nil), runs...))
			v := verify.CheckRuns(pts, want, mutated, total)
			if v == nil {
				t.Fatal("corrupted run list accepted")
			}
			if !strings.Contains(v.Error(), "counterexample point") {
				t.Errorf("rejection carries no counterexample point: %v", v)
			}
			t.Logf("rejected: %v", v)
		})
	}
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
	if err := verify.CheckSchedule(c.d, edges); err != nil {
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
			err := verify.CheckSchedule(c.d, mutated)
			if err == nil {
				t.Fatal("corrupted schedule accepted")
			}
			if !strings.Contains(err.Error(), "counterexample point") {
				t.Errorf("rejection carries no counterexample point: %v", err)
			}
			if name == "reversed-edge" && !strings.Contains(err.Error(), "deadlock") {
				t.Errorf("reversed edge not reported as a deadlock: %v", err)
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
			t.Logf("rejected: %v", v)
		})
	}
}
