package distrib_test

import (
	"reflect"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/tiling"
)

// TestRowsAreTheScan: the row table is the tile's point scan, compressed —
// for SOR (mapped along the innermost dimension), Jacobi, ADI and the 4-D
// heat nest, under rectangular and non-rectangular tilings, on interior and
// clamped shapes, expanding the rows reproduces ScanTilePoints order,
// Addresser.Flat / FlatRead for every point and dependence, and the global
// point P·j^S + U·z.
func TestRowsAreTheScan(t *testing.T) {
	type appCase struct {
		name    string
		app     *apps.App
		err     error
		x, y, z int64
	}
	sor, errS := apps.SOR(4, 10)
	jac, errJ := apps.Jacobi(8, 12)
	adi, errA := apps.ADI(8, 10)
	heat, errH := apps.Heat3D(6, 8)
	for _, c := range []appCase{
		{"sor", sor, errS, 2, 4, 4}, {"jacobi", jac, errJ, 2, 4, 4},
		{"adi", adi, errA, 2, 3, 3}, {"heat3d", heat, errH, 2, 2, 2},
	} {
		if c.err != nil {
			t.Fatal(c.err)
		}
		for _, fam := range append([]apps.TilingFamily{c.app.Rect}, c.app.NonRect[0]) {
			ts, err := tiling.Analyze(c.app.Nest, fam.H(c.x, c.y, c.z))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, fam.Name, err)
			}
			d, err := distrib.New(ts, c.app.MapDim)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, fam.Name, err)
			}
			full, clamped := checkRows(t, c.name+"/"+fam.Name, d)
			if full == 0 || clamped == 0 {
				t.Errorf("%s/%s: %d interior and %d clamped shapes — the fixture should have both", c.name, fam.Name, full, clamped)
			}
		}
	}
}

// checkRows walks every slot's row table of d against the slot's own scan
// and returns how many slots held full tiles and how many clamped ones.
func checkRows(t *testing.T, name string, d *distrib.Distribution) (full, clamped int) {
	t.Helper()
	ts := d.TS
	n, q := ts.T.N, ts.Nest.Q()
	pr := d.Protocol()
	for r := 0; r < d.NumProcs(); r++ {
		rp, err := d.Plan(r)
		if err != nil {
			t.Fatalf("%s: rank %d: %v", name, r, err)
		}
		for ti := range rp.Slots {
			sl := &rp.Slots[ti]
			pl := sl.Plan
			if int64(pl.Npts) == ts.T.TileSize {
				full++
			} else {
				clamped++
			}
			if len(pl.Uz) != len(pl.Rows)*n || len(pl.Read) != len(pl.Rows)*q {
				t.Fatalf("%s: rank %d slot %d: %d rows but %d/%d Uz/Read entries", name, r, ti, len(pl.Rows), len(pl.Uz), len(pl.Read))
			}
			row, i, pts, longest := 0, int64(0), 0, 0
			ts.ScanTilePoints(sl.Tile, func(z, jp ilin.Vec) bool {
				if row < len(pl.Rows) && i == int64(pl.Rows[row].N) {
					row, i = row+1, 0
				}
				if row >= len(pl.Rows) {
					t.Fatalf("%s: rank %d tile %v: scan point %d lies past the %d rows", name, r, sl.Tile, pts, len(pl.Rows))
				}
				if i == 0 {
					longest = max(longest, int(pl.Rows[row].N))
				}
				j := ts.GlobalOf(sl.Tile, z)
				for k := 0; k < n; k++ {
					if got := sl.PBase[k] + pl.Uz[row*n+k] + i*pr.RowStep[k]; got != j[k] {
						t.Fatalf("%s: rank %d tile %v row %d point %d: component %d of P·j^S+U·z is %d, the table gives %d", name, r, sl.Tile, row, i, k, j[k], got)
					}
				}
				if got, want := pl.Rows[row].Write+i, rp.Addr.Flat(jp, 0); got != want {
					t.Fatalf("%s: rank %d tile %v row %d point %d: write cell %d, Flat %d", name, r, sl.Tile, row, i, got, want)
				}
				for l := 0; l < q; l++ {
					if got, want := pl.Read[row*q+l]+i, rp.Addr.FlatRead(jp, pr.DPs[l], 0); got != want {
						t.Fatalf("%s: rank %d tile %v row %d point %d dep %d: read cell %d, FlatRead %d", name, r, sl.Tile, row, i, l, got, want)
					}
				}
				i++
				pts++
				return true
			})
			if pts != pl.Npts || (len(pl.Rows) > 0 && (row != len(pl.Rows)-1 || i != int64(pl.Rows[row].N))) {
				t.Fatalf("%s: rank %d tile %v: %d points in %d rows, the scan found %d and stopped in row %d at %d", name, r, sl.Tile, pl.Npts, len(pl.Rows), pts, row, i)
			}
			if longest != pl.MaxRow {
				t.Fatalf("%s: rank %d tile %v: MaxRow %d, longest row %d", name, r, sl.Tile, pl.MaxRow, longest)
			}
		}
	}
	return full, clamped
}

// boxDist tiles the box [0, hi] rectangularly and maps it along dimension 0.
func boxDist(t *testing.T, hi, sizes []int64, deps *ilin.Mat) *distrib.Distribution {
	t.Helper()
	nest, err := loopnest.Box(nil, make([]int64, len(hi)), hi, deps)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tiling.Rectangular(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRowsAreNotMergedAddressRuns is the trap an "empirically merge adjacent
// addresses" row table falls into: with the single dependence (2,1,0) under
// 2×2×2 tiles nothing pads the innermost LDS dimension, so the last point of
// one TTIS row and the first point of the next are adjacent in the write cell
// and in every read cell — yet the global point jumps (U·z does not continue
// by RowStep), so they must stay two rows.
func TestRowsAreNotMergedAddressRuns(t *testing.T) {
	d := boxDist(t, []int64{5, 5, 5}, []int64{2, 2, 2}, ilin.MatFromRows([]int64{2}, []int64{1}, []int64{0}))
	checkRows(t, "deps=[[2 1 0]] sizes=[2 2 2]", d)
	n, q := d.TS.T.N, d.TS.Nest.Q()
	step := d.Protocol().RowStep
	adjacent := 0
	for r := 0; r < d.NumProcs(); r++ {
		rp, err := d.Plan(r)
		if err != nil {
			t.Fatal(err)
		}
		for ti := range rp.Slots {
			pl := rp.Slots[ti].Plan
			for row := 1; row < len(pl.Rows); row++ {
				prev := pl.Rows[row-1]
				joins := pl.Rows[row].Write == prev.Write+int64(prev.N)
				for l := 0; l < q; l++ {
					joins = joins && pl.Read[row*q+l] == pl.Read[(row-1)*q+l]+int64(prev.N)
				}
				if !joins {
					continue
				}
				adjacent++
				continues := true
				for k := 0; k < n; k++ {
					continues = continues && pl.Uz[row*n+k] == pl.Uz[(row-1)*n+k]+int64(prev.N)*step[k]
				}
				if continues {
					t.Fatalf("rank %d slot %d: rows %d and %d continue each other in every address and in U·z — they are one scan row, split", r, ti, row-1, row)
				}
			}
		}
	}
	if adjacent == 0 {
		t.Fatal("no two consecutive rows are adjacent in every address: the fixture no longer sets the trap")
	}
}

// sliceElems counts the elements of every slice reachable from v.
func sliceElems(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return sliceElems(v.Elem(), seen)
	case reflect.Struct:
		total := 0
		for i := 0; i < v.NumField(); i++ {
			total += sliceElems(v.Field(i), seen)
		}
		return total
	case reflect.Slice:
		total := v.Len()
		for i := 0; i < v.Len(); i++ {
			total += sliceElems(v.Index(i), seen)
		}
		return total
	}
	return 0
}

// TestPlanTablesDoNotGrowWithRowLength: no slice reachable from a SlotPlan —
// its TilePlan and boundary runs included — has a length
// proportional to the tile's point count: the same nest with rows eight
// times as long compiles to tables of exactly the same size.
func TestPlanTablesDoNotGrowWithRowLength(t *testing.T) {
	deps := ilin.MatFromRows([]int64{1, 1, 1}, []int64{0, 1, 0}, []int64{0, 0, 1})
	size := func(inner int64) (elems int, points int64) {
		d := boxDist(t, []int64{3, 5, 2*inner - 1}, []int64{2, 3, inner}, deps)
		seen := map[uintptr]bool{}
		for r := 0; r < d.NumProcs(); r++ {
			rp, err := d.Plan(r)
			if err != nil {
				t.Fatal(err)
			}
			for ti := range rp.Slots {
				sl := &rp.Slots[ti]
				points += sl.Npts
				elems += sliceElems(reflect.ValueOf(sl), seen)
			}
		}
		return elems, points
	}
	shortElems, shortPts := size(8)
	longElems, longPts := size(64)
	if longPts != 8*shortPts {
		t.Fatalf("fixture: %d and %d points, want a factor of 8", shortPts, longPts)
	}
	if longElems != shortElems {
		t.Fatalf("tables hold %d elements at rows of 8 and %d at rows of 64: something in them is per point", shortElems, longElems)
	}
}
