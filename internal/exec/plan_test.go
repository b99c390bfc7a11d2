package exec

import (
	"fmt"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
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
	return buildProgram(tb, nest, h, 2, 1, sumKernel, zeroInit)
}

// TestPlanOffsetsMatchAddresser: for every tile of every rank (interior
// and boundary), the compiled write/read offsets shifted by t·chainStep
// must equal the per-point Addresser evaluation, and pBase + uz must
// reconstruct the global iteration point.
func TestPlanOffsetsMatchAddresser(t *testing.T) {
	p := planProgram(t)
	n := p.TS.T.N
	for r := 0; r < p.Dist.NumProcs(); r++ {
		st := newRankState(p, nil, r, RunOptions{})
		q := len(st.dps)
		for ti := int64(0); ti < p.Dist.ChainLen[r]; ti++ {
			tile := p.Dist.TileAt(r, ti)
			pl := st.planFor(tile)
			mulVecInto(st.pBase, p.TS.T.P, tile)
			tOff := ti * st.chainStep
			i := 0
			p.TS.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
				if got, want := pl.writeOff[i]+tOff, st.addr.Flat(jp, ti); got != want {
					t.Fatalf("rank %d tile %v point %d: writeOff %d, Flat %d", r, tile, i, got, want)
				}
				for l := 0; l < q; l++ {
					if got, want := pl.readOff[i*q+l]+tOff, st.addr.FlatRead(jp, st.dps[l], ti); got != want {
						t.Fatalf("rank %d tile %v point %d dep %d: readOff %d, FlatRead %d", r, tile, i, l, got, want)
					}
				}
				j := p.TS.GlobalOf(tile, z)
				for k := 0; k < n; k++ {
					if st.pBase[k]+pl.uz[i*n+k] != j[k] {
						t.Fatalf("rank %d tile %v point %d: pBase+uz reconstructs %v[%d] wrong (want %v)", r, tile, i, st.pBase, k, j)
					}
				}
				i++
				return true
			})
			if i != pl.npts {
				t.Fatalf("rank %d tile %v: plan has %d points, scan found %d", r, tile, pl.npts, i)
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
		st := newRankState(p, nil, r, RunOptions{})
		for ti := int64(0); ti < d.ChainLen[r]; ti++ {
			tile := d.TileAt(r, ti)
			pl := st.planFor(tile)
			if int64(pl.npts) != p.TS.T.TileSize {
				boundary++
			}
			for di, dm := range d.DM {
				dir := pl.dirs[di]
				if got := d.CommRegionCount(tile, dm); dir.total != got {
					t.Fatalf("rank %d tile %v dm %v: plan total %d, CommRegionCount %d", r, tile, dm, dir.total, got)
				}
				var want []int64
				d.CommRegion(tile, dm, func(z, jp ilin.Vec) bool {
					want = append(want, st.addr.Flat(jp, 0))
					return true
				})
				var got []int64
				for _, run := range dir.runs {
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

// TestPlanCacheSharing: all interior tiles must share the single full
// plan, and re-probing a boundary tile must return its cached plan, not a
// recompilation.
func TestPlanCacheSharing(t *testing.T) {
	p := planProgram(t)
	var fullPlans, boundaryTiles int
	for r := 0; r < p.Dist.NumProcs(); r++ {
		st := newRankState(p, nil, r, RunOptions{})
		for ti := int64(0); ti < p.Dist.ChainLen[r]; ti++ {
			tile := p.Dist.TileAt(r, ti)
			pl := st.planFor(tile)
			if again := st.planFor(tile); again != pl {
				t.Fatalf("tile %v recompiled on second probe", tile)
			}
			if int64(pl.npts) == p.TS.T.TileSize {
				fullPlans++
				if pl != st.plans.full {
					t.Fatalf("full tile %v did not use the shared plan", tile)
				}
			} else {
				boundaryTiles++
			}
		}
	}
	if fullPlans == 0 {
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
	st := newRankState(p, nil, 0, RunOptions{})
	tile := p.Dist.TileAt(0, 0)
	pl := st.planFor(tile)
	mulVecInto(st.pBase, p.TS.T.P, tile)
	st.computePhasePlanned(pl, 0) // warm up
	if allocs := testing.AllocsPerRun(20, func() {
		st.computePhasePlanned(pl, 0)
	}); allocs != 0 {
		t.Fatalf("planned compute sweep allocates %.1f times per tile, want 0", allocs)
	}
}

// fullTileSlot returns a (rank, chain slot) holding a full tile, falling
// back to (0, 0) when none exists.
func fullTileSlot(p *Program) (int, int64) {
	probe := newRankState(p, nil, 0, RunOptions{})
	for r := 0; r < p.Dist.NumProcs(); r++ {
		for ti := int64(0); ti < p.Dist.ChainLen[r]; ti++ {
			if probe.tileFull(p.Dist.TileAt(r, ti)) {
				return r, ti
			}
		}
	}
	return 0, 0
}

// BenchmarkComputePhase compares the compiled compute sweep against the
// legacy per-point Addresser path on one interior tile, reporting
// points/sec for EXPERIMENTS.md (the acceptance bar is ≥2× and zero
// allocations for the planned sub-benchmark).
func BenchmarkComputePhase(b *testing.B) {
	p := planProgram(b)
	r, ti := fullTileSlot(p)
	stP := newRankState(p, nil, r, RunOptions{})
	stL := newRankState(p, nil, r, RunOptions{})
	tile := p.Dist.TileAt(r, ti)
	pl := stP.planFor(tile)
	mulVecInto(stP.pBase, p.TS.T.P, tile)
	pts := float64(pl.npts)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
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
	// Pooled steady state is held to the same zero-allocation bar as the
	// serial planned sweep (the CI grep covers every /planned* variant).
	for _, wk := range []int{2, 4} {
		b.Run(fmt.Sprintf("planned-workers%d", wk), func(b *testing.B) {
			stW := newRankState(p, nil, r, RunOptions{Workers: wk})
			stW.wpool = newWorkerPool(stW, wk)
			defer stW.wpool.close()
			plW := stW.planFor(tile)
			mulVecInto(stW.pBase, p.TS.T.P, tile)
			stW.computePhaseParallel(plW, ti) // compile local plan, warm pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stW.computePhaseParallel(plW, ti)
			}
			b.ReportMetric(pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkPackUnpack compares run-based bulk-copy packing/unpacking
// against the legacy per-point region walks, over every processor
// direction of one interior tile.
func BenchmarkPackUnpack(b *testing.B) {
	p := planProgram(b)
	d := p.Dist
	w := p.Width
	r, ti := fullTileSlot(p)
	stP := newRankState(p, nil, r, RunOptions{})
	stL := newRankState(p, nil, r, RunOptions{})
	tile := p.Dist.TileAt(r, ti)
	pl := stP.planFor(tile)
	var maxVals, totalPts int64
	for _, dir := range pl.dirs {
		if dir.total > maxVals {
			maxVals = dir.total
		}
		totalPts += dir.total
	}
	if totalPts == 0 {
		b.Fatal("benchmark tile has empty communication regions")
	}
	buf := make([]float64, maxVals*int64(w))
	pts := float64(totalPts)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		tOff := ti * stP.chainStep
		for i := 0; i < b.N; i++ {
			for di := range d.DM {
				dir := &pl.dirs[di]
				pos := 0
				for _, run := range dir.runs { // pack
					cell := (run.Off + tOff) * int64(w)
					nn := int(run.N) * w
					copy(buf[pos:pos+nn], stP.la[cell:cell+int64(nn)])
					pos += nn
				}
				base := tOff + stP.dirShift[di]
				pos = 0
				for _, run := range dir.runs { // unpack
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
				d.CommRegion(tile, dm, func(z, jp ilin.Vec) bool { // pack
					cell := stL.addr.Flat(jp, ti) * int64(w)
					copy(buf[pos:pos+w], stL.la[cell:cell+int64(w)])
					pos += w
					return true
				})
				dmF := stL.dmFulls[di]
				pos = 0
				d.CommRegion(tile, dm, func(z, pp ilin.Vec) bool { // unpack
					cell := stL.addr.FlatUnpack(pp, dmF, ti) * int64(w)
					copy(stL.la[cell:cell+int64(w)], buf[pos:pos+w])
					pos += w
					return true
				})
			}
		}
		b.ReportMetric(2*pts*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}
