package exec

import (
	"fmt"
	"slices"
	"testing"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// planProgram builds the skewed SOR program with the §4.1 non-rectangular
// tiling — off-diagonal H̃', ragged boundaries, multi-direction
// communication — the hardest shape the plan compiler has to get right.
func planProgram(tb testing.TB) *Program {
	nest := sorNest(tb, 4, 8)
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(1, 1, rat.New(1, 5))
	h.Set(2, 0, rat.New(-1, 4))
	h.Set(2, 2, rat.New(1, 4))
	return buildProgram(tb, nest, h, 2, 1, sumStatement(nest.Q()), zeroInit)
}

// mustRankState is newRankState for fixtures whose chains compile cleanly.
func mustRankState(tb testing.TB, p *Program, r int, opt RunOptions) *rankState {
	tb.Helper()
	st, err := newRankState(p, r, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// mustPlan is rank r's compiled chain, both levels.
func mustPlan(tb testing.TB, p *Program, r int) *distrib.RankPlan {
	tb.Helper()
	rp, err := p.Dist.Plan(r)
	if err != nil {
		tb.Fatal(err)
	}
	return rp
}

// TestPlanOffsetsMatchAddresser: for every tile of every rank (interior
// and boundary), walking the row table with a cursor must visit the tile's
// scan: the stepped write/read cells shifted by t·chainStep must equal the
// per-point Addresser evaluation, and pBase + uz + i·RowStep must
// reconstruct the global iteration point.
func TestPlanOffsetsMatchAddresser(t *testing.T) {
	p := planProgram(t)
	n := p.TS.T.N
	for r := 0; r < p.Dist.NumProcs(); r++ {
		st := mustRankState(t, p, r, RunOptions{})
		q := len(st.dps)
		for ti := int64(0); ti < p.Dist.ChainLen[r]; ti++ {
			sl := &st.Slots[ti]
			tile, pl := sl.Tile, sl.Plan
			tOff := ti * st.ChainStep
			row, i, pts := 0, int64(0), 0
			tilePoints(p.TS, tile, func(z, jp ilin.Vec) bool {
				if row < len(pl.Rows) && i == int64(pl.Rows[row].N) {
					row, i = row+1, 0
				}
				if row >= len(pl.Rows) {
					t.Fatalf("rank %d tile %v: scan point %d lies past the plan's %d rows", r, tile, pts, len(pl.Rows))
				}
				if got, want := pl.Rows[row].Write+i+tOff, st.Addr.Flat(jp, ti); got != want {
					t.Fatalf("rank %d tile %v row %d point %d: write cell %d, Flat %d", r, tile, row, i, got, want)
				}
				for l := 0; l < q; l++ {
					if got, want := pl.Read[row*q+l]+i+tOff, st.Addr.FlatRead(jp, st.dps[l], ti); got != want {
						t.Fatalf("rank %d tile %v row %d point %d dep %d: read cell %d, FlatRead %d", r, tile, row, i, l, got, want)
					}
				}
				j := global(p.TS, tile, z)
				for k := 0; k < n; k++ {
					if sl.PBase[k]+pl.Uz[row*n+k]+i*st.rowStep[k] != j[k] {
						t.Fatalf("rank %d tile %v row %d point %d: pBase+uz+i·step reconstructs component %d wrong (want %v)", r, tile, row, i, k, j)
					}
				}
				i++
				pts++
				return true
			})
			if pts != pl.Npts || (len(pl.Rows) > 0 && (row != len(pl.Rows)-1 || i != int64(pl.Rows[row].N))) {
				t.Fatalf("rank %d tile %v: plan has %d points in %d rows, scan found %d and stopped at row %d point %d", r, tile, pl.Npts, len(pl.Rows), pts, row, i)
			}
		}
	}
}

// TestPlanDirsMatchCommRegion: every plan's per-direction run lists must
// cover exactly the tile's communication region, boundary tiles included,
// and the fused totals must agree with the closed-form count the legacy
// path uses for message sizing.
func TestPlanDirsMatchCommRegion(t *testing.T) {
	p := planProgram(t)
	d := p.Dist
	boundary := 0
	for r := 0; r < p.Dist.NumProcs(); r++ {
		st := mustRankState(t, p, r, RunOptions{})
		for ti := int64(0); ti < d.ChainLen[r]; ti++ {
			tile, pl := d.TileAt(r, ti), st.Slots[ti].Plan
			if int64(pl.Npts) != p.TS.T.TileSize {
				boundary++
			}
			for di, dm := range d.DM {
				dir := pl.Dirs[di]
				var want []int64
				if got := commRegion(d, tile, dm, func(z, jp ilin.Vec) bool {
					want = append(want, st.Addr.Flat(jp, 0))
					return true
				}); dir.Total != got {
					t.Fatalf("rank %d tile %v dm %v: plan total %d, region %d", r, tile, dm, dir.Total, got)
				}
				var got []int64
				for _, run := range dir.Runs {
					for k := int64(0); k < run.N; k++ {
						got = append(got, run.Off+k)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("rank %d tile %v dm %v: runs cover %d cells, region has %d", r, tile, dm, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("rank %d tile %v dm %v cell %d: run %d, region %d", r, tile, dm, i, got[i], want[i])
					}
				}
			}
		}
	}
	if boundary == 0 {
		t.Fatal("no boundary tiles exercised — fixture too regular")
	}
}

// TestPlanCacheSharing: every full tile of equal-ChainLen ranks must share
// one plan across ranks, and a second look at a rank must return the
// compiled chain, not a recompilation.
func TestPlanCacheSharing(t *testing.T) {
	p := planProgram(t)
	full := map[int64]*distrib.TilePlan{} // ChainLen → the shared full plan
	var fullTiles, boundaryTiles int
	for r := 0; r < p.Dist.NumProcs(); r++ {
		rp := mustPlan(t, p, r)
		steps := p.Dist.CompileSteps()
		if again := mustPlan(t, p, r); again != rp || p.Dist.CompileSteps() != steps {
			t.Fatalf("rank %d recompiled on second lookup", r)
		}
		for ti := range rp.Slots {
			pl := rp.Slots[ti].Plan
			if int64(pl.Npts) != p.TS.T.TileSize {
				boundaryTiles++
				continue
			}
			fullTiles++
			if shared, ok := full[pl.ChainLen]; ok && shared != pl {
				t.Fatalf("full tile %v did not use the shared plan", rp.Slots[ti].Tile)
			}
			full[pl.ChainLen] = pl
		}
	}
	if fullTiles == 0 {
		t.Fatal("no full tiles anywhere — fixture too small")
	}
	if boundaryTiles == 0 {
		t.Fatal("no boundary tiles anywhere — fixture too regular")
	}
}

// TestComputePhasePlannedZeroAlloc: the compiled compute sweep must not
// allocate — the acceptance bar for the strength-reduced path.
func TestComputePhasePlannedZeroAlloc(t *testing.T) {
	p := planProgram(t)
	st := mustRankState(t, p, 0, RunOptions{})
	pl := st.Slots[0].Plan
	st.pBase = st.Slots[0].PBase
	st.computePhasePlanned(pl, 0) // warm up
	if allocs := testing.AllocsPerRun(20, func() {
		st.computePhasePlanned(pl, 0)
	}); allocs != 0 {
		t.Fatalf("planned compute sweep allocates %.1f times per tile, want 0", allocs)
	}
}

// coefPlanProgram is planProgram with a Coef added to its sum: the path
// through the same tables that materialises the iteration point.
func coefPlanProgram(tb testing.TB) *Program {
	p := planProgram(tb)
	p.Kernel = Statement(Add(p.Kernel.stmt.slots[0], Coef(func(j ilin.Vec) float64 { return float64(j[0]) }, "(double)j[0]")))
	return p
}

// TestWarmRankAllocatesNothing: with the plan, the boundary values and the
// evaluator scratch warm, one rank's init + sweep over its whole chain and
// its write-back allocate nothing, for a fused statement and for one with a
// Coef.
func TestWarmRankAllocatesNothing(t *testing.T) {
	for name, p := range map[string]*Program{"statement": planProgram(t), "coef": coefPlanProgram(t)} {
		r, _ := boundarySlot(t, p)
		st := mustRankState(t, p, r, RunOptions{})
		g := nanGlobal(p.lo, p.hi, p.Width)
		rank := func() {
			for ti := range st.Slots {
				sl := &st.Slots[ti]
				st.pBase = sl.PBase
				st.initPhasePlanned(sl, int64(ti))
				st.computePhasePlanned(sl.Plan, int64(ti))
			}
			st.writeBack(g)
		}
		rank() // warm up: the evaluator sizes its registers on first use
		if allocs := testing.AllocsPerRun(10, rank); allocs != 0 {
			t.Errorf("%s kernel: a warm rank allocates %.1f times per chain, want 0", name, allocs)
		}
	}
}

// TestWriteBackKeepsTheBox: the compiled write-back stores what the
// per-point one does, by one copy per row where a row's points are adjacent
// in the Global (a skewed SOR tiling) and by its strided loop where they are
// not (an ADI-like tiling whose rows step (1, 0, 1), two values a point).
// And a slot whose P·j^S is moved so that a row ends one point past the
// Global's box panics, as Global.index did per row: the box is checked once
// per slot, over the plan's whole box.
func TestWriteBackKeepsTheBox(t *testing.T) {
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(0, 2, rat.New(-1, 2))
	h.Set(1, 1, rat.New(1, 4))
	h.Set(2, 2, rat.New(1, 4))
	adi := buildProgram(t, mustBox(t, nil, []int64{1, 1, 1}, []int64{4, 8, 8}, ilin.MatFromRows([]int64{1, 1, 1}, []int64{0, 1, 0}, []int64{0, 0, 1})),
		h, 0, 2, Statement(Add(Read(0, 0), Read(2, 1)), Add(Read(1, 0), Read(0, 1))), zeroInit)
	strided := map[bool]bool{}
	for name, p := range map[string]*Program{"skewed": planProgram(t), "adi": adi} {
		for r := 0; r < p.Dist.NumProcs(); r++ {
			st := mustRankState(t, p, r, RunOptions{})
			for i := range st.la {
				st.la[i] = float64(i) + 0.5
			}
			got, want := nanGlobal(p.lo, p.hi, p.Width), nanGlobal(p.lo, p.hi, p.Width)
			st.writeBack(got)
			st.writeBackPerPoint(want)
			if at, differ := got.FirstBitDiff(want); differ {
				t.Fatalf("%s rank %d: the compiled write-back differs from the per-point one at %v", name, r, at)
			}
			strided[st.init.step != int64(p.Width)] = true
		}
	}
	if !strided[false] || !strided[true] {
		t.Fatalf("the fixtures write rows by copy %v and strided %v, want both", strided[false], strided[true])
	}

	p := planProgram(t)
	r, ti := fullTileSlot(t, p)
	st := mustRankState(t, p, r, RunOptions{})
	sl := &st.Slots[ti] // this program's own plan: moving it spoils no other test
	last := len(sl.PBase) - 1
	moved := sl.PBase.Clone()
	moved[last] += p.hi[last] - (sl.PBase[last] + sl.Plan.UzHi[last]) + 1
	sl.PBase = moved
	defer func() {
		if recover() == nil {
			t.Error("a slot whose rows leave the Global's box wrote back without a panic")
		}
	}()
	st.writeBack(nanGlobal(p.lo, p.hi, p.Width))
}

// TestRowsAreNotMergedRunsInARun runs the configuration on which a row table
// built by merging adjacent addresses goes wrong (distrib's
// TestRowsAreNotMergedAddressRuns): consecutive TTIS rows adjacent in every
// address, with the global point jumping between them. A kernel that reads
// the point (a Coef) must match the sequential reference, which it would not
// with j stepped across a row end.
func TestRowsAreNotMergedRunsInARun(t *testing.T) {
	nest := mustBox(t, nil, []int64{0, 0, 0}, []int64{5, 5, 5}, ilin.MatFromRows([]int64{2}, []int64{1}, []int64{0}))
	tr, err := tiling.Rectangular(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(j ilin.Vec) float64 { return float64(j[0]*10000 + j[1]*100 + j[2]) }
	stmt := Statement(Add(Coef(enc, "(double)(j[0]*10000 + j[1]*100 + j[2])"), Mul(Const(0.5), Read(0, 0))))
	p := buildProgram(t, nest, tr.H, 0, 1, stmt, func(j ilin.Vec, out []float64) { out[0] = -enc(j) })
	t.Run("statement", func(t *testing.T) { comparePrograms(t, p) })
}

// fullTileSlot returns a (rank, chain slot) holding a full tile, falling
// back to (0, 0) when none exists.
func fullTileSlot(tb testing.TB, p *Program) (int, int64) {
	for r := 0; r < p.Dist.NumProcs(); r++ {
		for ti, sl := range mustPlan(tb, p, r).Slots {
			if int64(sl.Plan.Npts) == p.TS.T.TileSize {
				return r, int64(ti)
			}
		}
	}
	return 0, 0
}

// boundarySlot returns the (rank, chain slot) with the longest
// boundary-read list.
func boundarySlot(tb testing.TB, p *Program) (int, int64) {
	br, bt, most := 0, int64(0), 0
	for r := 0; r < p.Dist.NumProcs(); r++ {
		for ti, sl := range mustPlan(tb, p, r).Slots {
			if len(sl.Boundary) > most {
				br, bt, most = r, int64(ti), len(sl.Boundary)
			}
		}
	}
	if most == 0 {
		tb.Fatal("no slot reads outside the iteration space — fixture too regular")
	}
	return br, bt
}

// TestInitPhasePlannedZeroAlloc: replaying a boundary-read list must not
// allocate (nor test containment: the list is all it walks).
func TestInitPhasePlannedZeroAlloc(t *testing.T) {
	p := planProgram(t)
	r, ti := boundarySlot(t, p)
	st := mustRankState(t, p, r, RunOptions{})
	sl := &st.Slots[ti]
	if allocs := testing.AllocsPerRun(20, func() {
		st.initPhasePlanned(sl, ti)
	}); allocs != 0 {
		t.Fatalf("planned init phase allocates %.1f times per tile, want 0", allocs)
	}
}

// CompileSteps exposes the plan compiler's work counter (lattice scans,
// plan compilations, boundary-list builds) to the external test package.
func (p *Program) CompileSteps() int64 { return p.Dist.CompileSteps() }

// CheckBoundaryReads compares every chain slot's compiled boundary-read
// list with the brute-force enumeration — every read of every point tested
// against the whole space — and checks that tiles the retired per-run
// shortcut called interior (the tile and all its D^S predecessors full)
// have an empty list. It returns how many slots it saw, how many were
// interior and how many lists were non-empty.
func (p *Program) CheckBoundaryReads() (slots, interior, nonEmpty int, err error) {
	n := p.TS.T.N
	src := make(ilin.Vec, n)
	full := func(s ilin.Vec) bool {
		return p.TS.ValidTile(s) && p.TS.CountTilePoints(s) == p.TS.T.TileSize
	}
	deps := p.Dist.Protocol().Deps
	for r := 0; r < p.Dist.NumProcs(); r++ {
		rp, err := p.Dist.Plan(r)
		if err != nil {
			return 0, 0, 0, err
		}
		for ti, sl := range rp.Slots {
			var want, got []int32
			i := 0
			tilePoints(p.TS, sl.Tile, func(z, jp ilin.Vec) bool {
				j := global(p.TS, sl.Tile, z)
				for l, dep := range deps {
					copy(src, j.Sub(dep))
					if !p.TS.Nest.Space.Contains(src) {
						want = append(want, int32(i*len(deps)+l))
					}
				}
				i++
				return true
			})
			// The runs list (row, dependence, offset); brute force went (point,
			// dependence): compare as sets of point·q+dependence.
			first := make([]int32, len(sl.Plan.Rows)) // per row: its first point's scan index
			for row := 1; row < len(first); row++ {
				first[row] = first[row-1] + sl.Plan.Rows[row-1].N
			}
			for _, b := range sl.Boundary {
				for o := b.Off; o < b.Off+b.N; o++ {
					got = append(got, (first[b.Row]+o)*int32(len(deps))+b.Dep)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				return 0, 0, 0, fmt.Errorf("rank %d slot %d tile %v: compiled boundary reads %v, brute force %v", r, ti, sl.Tile, got, want)
			}
			isInterior := full(sl.Tile)
			for _, dS := range p.TS.DS {
				isInterior = isInterior && full(sl.Tile.Sub(dS))
			}
			if isInterior && len(sl.Boundary) != 0 {
				return 0, 0, 0, fmt.Errorf("rank %d slot %d: interior tile %v has %d boundary reads", r, ti, sl.Tile, len(sl.Boundary))
			}
			slots++
			if isInterior {
				interior++
			}
			if len(sl.Boundary) != 0 {
				nonEmpty++
			}
		}
	}
	return slots, interior, nonEmpty, nil
}

// untimedFirst: each planned arm makes one untimed call before its timer
// starts, as BenchmarkRowKernel does. The runtime may start an OS thread
// (six allocations) just after the GC that precedes every benchmark run,
// which CI's -benchtime=1x would read as the arm's allocations.

// BenchmarkComputePhase compares the compiled compute sweep against the
// legacy per-point Addresser path on one interior tile, reporting
// points/sec for EXPERIMENTS.md (the acceptance bar is ≥2× and zero
// allocations for the planned sub-benchmark).
func BenchmarkComputePhase(b *testing.B) {
	p := planProgram(b)
	r, ti := fullTileSlot(b, p)
	stP := mustRankState(b, p, r, RunOptions{})
	stL := mustRankState(b, p, r, RunOptions{})
	tile := p.Dist.TileAt(r, ti)
	pl := stP.Slots[ti].Plan
	stP.pBase = stP.Slots[ti].PBase
	pts := float64(pl.Npts)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		stP.computePhasePlanned(pl, ti) // untimed: see untimedFirst
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stP.computePhasePlanned(pl, ti)
		}
		b.ReportMetric(pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stL.computePhase(tile, ti)
		}
		b.ReportMetric(pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkInitPhase compares replaying a compiled boundary-read list
// against the reference per-point injection (a containment test per read)
// on the slot with the most boundary reads; the planned arm is held to zero
// allocations by the CI grep.
func BenchmarkInitPhase(b *testing.B) {
	p := planProgram(b)
	r, ti := boundarySlot(b, p)
	st := mustRankState(b, p, r, RunOptions{})
	sl := &st.Slots[ti]
	reads := float64(sl.BoundaryValues())
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		st.initPhasePlanned(sl, ti) // untimed: see untimedFirst
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.initPhasePlanned(sl, ti)
		}
		b.ReportMetric(reads*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.initPhase(sl.Tile, ti)
		}
		b.ReportMetric(reads*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	})
}

// BenchmarkWriteBack compares the row-wise write-back (the slot's box
// checked once, then a copy or a strided loop per row at its compiled
// offset) against the reference's per-point Global.Set over one rank's whole
// chain; the planned arm is held to zero allocations by the CI grep.
func BenchmarkWriteBack(b *testing.B) {
	p := planProgram(b)
	r, _ := fullTileSlot(b, p)
	st := mustRankState(b, p, r, RunOptions{})
	g := nanGlobal(p.lo, p.hi, p.Width)
	var pts float64
	for ti := range st.Slots {
		pts += float64(st.Slots[ti].Plan.Npts)
	}
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		st.writeBack(g) // untimed: see untimedFirst
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.writeBack(g)
		}
		b.ReportMetric(pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.writeBackPerPoint(g)
		}
		b.ReportMetric(pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkPackUnpack compares run-based bulk-copy packing/unpacking
// against the legacy per-point region walks, over every processor
// direction of one interior tile.
func BenchmarkPackUnpack(b *testing.B) {
	p := planProgram(b)
	d := p.Dist
	w := p.Width
	r, ti := fullTileSlot(b, p)
	stP := mustRankState(b, p, r, RunOptions{})
	stL := mustRankState(b, p, r, RunOptions{})
	tile := p.Dist.TileAt(r, ti)
	pl := stP.Slots[ti].Plan
	var maxVals, totalPts int64
	for _, dir := range pl.Dirs {
		if dir.Total > maxVals {
			maxVals = dir.Total
		}
		totalPts += dir.Total
	}
	if totalPts == 0 {
		b.Fatal("benchmark tile has empty communication regions")
	}
	buf := make([]float64, maxVals*int64(w))
	pts := float64(totalPts)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		tOff := ti * stP.ChainStep
		for i := 0; i < b.N; i++ {
			for di := range d.DM {
				dir := &pl.Dirs[di]
				pos := 0
				for _, run := range dir.Runs { // pack
					cell := (run.Off + tOff) * int64(w)
					nn := int(run.N) * w
					copy(buf[pos:pos+nn], stP.la[cell:cell+int64(nn)])
					pos += nn
				}
				base := tOff + stP.DirShift[di]
				pos = 0
				for _, run := range dir.Runs { // unpack
					cell := (run.Off + base) * int64(w)
					nn := int(run.N) * w
					copy(stP.la[cell:cell+int64(nn)], buf[pos:pos+nn])
					pos += nn
				}
			}
		}
		b.ReportMetric(2*pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for di, dm := range d.DM {
				pos := 0
				commRegion(d, tile, dm, func(z, jp ilin.Vec) bool { // pack
					cell := stL.Addr.Flat(jp, ti) * int64(w)
					copy(buf[pos:pos+w], stL.la[cell:cell+int64(w)])
					pos += w
					return true
				})
				dmF := d.Protocol().DmFulls[di]
				pos = 0
				commRegion(d, tile, dm, func(z, pp ilin.Vec) bool { // unpack
					cell := (stL.Addr.Flat(pp, ti) + stL.Addr.DirShift(dmF)) * int64(w)
					copy(stL.la[cell:cell+int64(w)], buf[pos:pos+w])
					pos += w
					return true
				})
			}
		}
		b.ReportMetric(2*pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}
