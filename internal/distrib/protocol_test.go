package distrib

import (
	"strings"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// TestScheduleLevelAgreesWithAddressLevel: the schedule level is compiled
// from the tile table's counts and compiles no plan; once the address level
// attaches, every count it promised must be what the plans hold — per slot
// the point count and each send's region, per inbound row the
// predecessor's region.
func TestScheduleLevelAgreesWithAddressLevel(t *testing.T) {
	d := jacobiDist(t)
	var rows, sends int
	for r := 0; r < d.NumProcs(); r++ {
		if _, err := d.Schedule(r); err != nil {
			t.Fatal(err)
		}
	}
	if d.CompileSteps() != 0 || d.NumShapes() != 0 {
		t.Fatalf("schedule level did %d plan-compilation steps and compiled %d shapes, want none", d.CompileSteps(), d.NumShapes())
	}
	for r := 0; r < d.NumProcs(); r++ {
		rp, err := d.Plan(r)
		if err != nil {
			t.Fatal(err)
		}
		for ti, sl := range rp.Slots {
			if sl.Npts != int64(sl.Plan.Npts) || sl.Npts != d.TS.CountTilePoints(sl.Tile) {
				t.Fatalf("rank %d slot %d: schedule says %d points, plan %d", r, ti, sl.Npts, sl.Plan.Npts)
			}
			for _, snd := range sl.Sends {
				sends++
				if got := sl.Plan.Dirs[snd.Dir].Total; got != snd.Count {
					t.Fatalf("rank %d slot %d dir %d: schedule sends %d values, runs pack %d", r, ti, snd.Dir, snd.Count, got)
				}
			}
		}
		for i, m := range rp.Msgs {
			rows++
			if m.Runs.Total != m.Count {
				t.Fatalf("rank %d row %d: schedule expects %d values, runs unpack %d", r, i, m.Count, m.Runs.Total)
			}
		}
	}
	if rows == 0 || rows != sends {
		t.Fatalf("%d inbound rows for %d sends", rows, sends)
	}
}

// TestOneRankCompilesOneRank: asking for one rank's chain leaves every other
// rank untouched — what keeps a rank-per-process run (cmd/tilerankd) from
// paying for the whole mesh.
func TestOneRankCompilesOneRank(t *testing.T) {
	d := jacobiDist(t)
	if _, err := d.Plan(1); err != nil {
		t.Fatal(err)
	}
	for r := range d.proto.ranks {
		if compiled := d.proto.ranks[r].Slots != nil; compiled != (r == 1) {
			t.Fatalf("after Plan(1): rank %d compiled = %v", r, compiled)
		}
	}
	steps := d.CompileSteps()
	if _, err := d.Plan(1); err != nil || d.CompileSteps() != steps {
		t.Fatalf("second Plan(1) recompiled (err %v)", err)
	}
}

// TestNeighbourWithoutRankFailsTheChain: a tile whose neighbour processor
// has no rank is one error, raised where the chain is compiled; Schedule and
// Plan both return it.
func TestNeighbourWithoutRankFailsTheChain(t *testing.T) {
	d := jacobiDist(t)
	lost := d.NumProcs() - 1
	cell, ok := d.pidBox.Index(d.Pids[lost])
	if !ok {
		t.Fatalf("pid %v outside the pid box", d.Pids[lost])
	}
	d.rankOf[cell] = -1
	var failed int
	for r := 0; r < d.NumProcs(); r++ {
		_, err := d.Schedule(r)
		if err == nil {
			continue
		}
		failed++
		if !strings.Contains(err.Error(), "has no rank") {
			t.Fatalf("rank %d: %v", r, err)
		}
		if _, perr := d.Plan(r); perr != err {
			t.Fatalf("rank %d: Plan returned %v, Schedule %v", r, perr, err)
		}
	}
	if failed == 0 {
		t.Fatal("no chain noticed the unmapped neighbour")
	}
}

// TestColdPlanScansEachTileOnce: compiling every rank of a cold
// distribution scans the rows of each tile not wholly inside the space
// exactly once — whichever ranks ask for it, as a slot or as a predecessor —
// and no other tile; compiling again scans nothing.
func TestColdPlanScansEachTileOnce(t *testing.T) {
	for _, d := range []*Distribution{jacobiDist(t), mustNew(t, rect2D(t, 13, 10, 3, 4), 0)} {
		var clamped int64
		d.TS.ScanTiles(func(jS ilin.Vec) bool {
			if !d.TS.TileFullyInside(jS) {
				clamped++
			}
			return true
		})
		for r := 0; r < d.NumProcs(); r++ {
			if _, err := d.Plan(r); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.proto.scans.Load(); got != clamped || clamped == 0 {
			t.Fatalf("a cold all-ranks Plan scanned %d tiles' rows, want the %d clamped tiles once each", got, clamped)
		}
		for r := 0; r < d.NumProcs(); r++ {
			d.Plan(r)
			d.tileOf(d.TileAt(r, 0), true)
		}
		if got := d.proto.scans.Load(); got != clamped {
			t.Fatalf("a warm distribution scanned %d more tiles", got-clamped)
		}
	}
}

func mustNew(t *testing.T, ts *tiling.TiledSpace, m int) *Distribution {
	t.Helper()
	d, err := New(ts, m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestScheduleOnlyKeepsCounts: a schedule-only compile — what the simulator
// runs at paper scale — scans each clamped tile once and keeps its counts
// alone: the shape table holds the full shape and nothing else.
func TestScheduleOnlyKeepsCounts(t *testing.T) {
	d := jacobiDist(t)
	for r := 0; r < d.NumProcs(); r++ {
		if _, err := d.Schedule(r); err != nil {
			t.Fatal(err)
		}
	}
	var clamped int64
	d.TS.ScanTiles(func(jS ilin.Vec) bool {
		if !d.TS.TileFullyInside(jS) {
			clamped++
		}
		return true
	})
	if got := d.proto.scans.Load(); got != clamped {
		t.Fatalf("schedule-only compile scanned %d tiles' rows, want the %d clamped tiles once each", got, clamped)
	}
	if len(d.proto.shapes) != 1 || d.proto.full.lens == nil {
		t.Fatalf("schedule-only compile kept %d row lists, want the full shape's alone", len(d.proto.shapes))
	}
}
