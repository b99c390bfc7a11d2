package distrib

import (
	"strings"
	"testing"
)

// TestScheduleLevelAgreesWithAddressLevel: the schedule level is compiled
// from closed-form counts and touches no per-point table; once the address
// level attaches, every count it promised must be what the scanned plans
// hold — per slot the point count and each send's region, per inbound row
// the predecessor's region.
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
			if sl.Npts != int64(sl.Plan.Npts) || sl.Npts != d.TS.TilePointCount(sl.Tile) {
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
	delete(d.rankOf, d.Pids[lost].String())
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
