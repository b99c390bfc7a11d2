package tilespace

// Benchmark harness regenerating the paper's evaluation, one benchmark per
// figure (there are no numeric tables in the paper; Tables 1-3 are
// formula/code listings covered by unit tests). Figures run at a reduced
// scale by default so `go test -bench=.` finishes in minutes; set
// TILESPACE_BENCH_SCALE=1 for full paper scale (what cmd/clusterbench runs
// and EXPERIMENTS.md records).
//
// Reported custom metrics:
//
//	speedup_rect / speedup_nr* — simulated cluster speedups
//	improv_%                   — mean non-rect improvement over rect (§4.4)

import (
	"os"
	"strconv"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/bench"
	"tilespace/internal/codegen"
	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/opt"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

func benchScale() bench.Scale {
	if s := os.Getenv("TILESPACE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v >= 1 {
			return bench.Scale(v)
		}
	}
	return 4
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	figs, err := bench.Figures(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	var fig *bench.Figure
	for _, f := range figs {
		if f.ID == id {
			fig = f
		}
	}
	if fig == nil {
		b.Fatalf("unknown figure %s", id)
	}
	par := simnet.FastEthernetPIII()
	var fr *bench.FigureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err = fig.Run(par)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fr.AverageImprovement(), "improv_%")
	// Report the first series' best speedups per family.
	best := fr.Series[0].MaxSpeedups()
	for _, fam := range fr.Series[0].Families {
		b.ReportMetric(best[fam], "speedup_"+fam)
	}
}

// Figures 5-10 of the paper's evaluation.
func BenchmarkFig5SORMaxSpeedups(b *testing.B)    { runFigure(b, "fig5") }
func BenchmarkFig6SORTileSizes(b *testing.B)      { runFigure(b, "fig6") }
func BenchmarkFig7JacobiMaxSpeedups(b *testing.B) { runFigure(b, "fig7") }
func BenchmarkFig8JacobiTileSizes(b *testing.B)   { runFigure(b, "fig8") }
func BenchmarkFig9ADIMaxSpeedups(b *testing.B)    { runFigure(b, "fig9") }
func BenchmarkFig10ADITileSizes(b *testing.B)     { runFigure(b, "fig10") }

// BenchmarkAblationOverlap compares blocking communication with the
// overlapped scheme of the paper's future-work reference [8].
func BenchmarkAblationOverlap(b *testing.B) {
	s, err := bench.SORSweep("ablation", 28, 52, []int64{8})
	if err != nil {
		b.Fatal(err)
	}
	par := simnet.FastEthernetPIII()
	var blocking, overlapped float64
	for i := 0; i < b.N; i++ {
		res, err := s.Run(par)
		if err != nil {
			b.Fatal(err)
		}
		blocking = res.Points[0].Results["nr"].Speedup
		par.Overlap = true
		res, err = s.Run(par)
		if err != nil {
			b.Fatal(err)
		}
		overlapped = res.Points[0].Results["nr"].Speedup
		par.Overlap = false
	}
	b.ReportMetric(blocking, "speedup_blocking")
	b.ReportMetric(overlapped, "speedup_overlap")
}

// BenchmarkAblationMappingDim contrasts the paper's mapping heuristic
// (longest dimension on one processor) with mapping along a short one.
func BenchmarkAblationMappingDim(b *testing.B) {
	app, err := apps.SOR(24, 48)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(12, 10, 8))
	if err != nil {
		b.Fatal(err)
	}
	par := simnet.FastEthernetPIII()
	var long, short float64
	for i := 0; i < b.N; i++ {
		dLong, err := distrib.New(ts, 2) // dim 3: the longest (paper's choice)
		if err != nil {
			b.Fatal(err)
		}
		rLong, err := simnet.Simulate(dLong, par)
		if err != nil {
			b.Fatal(err)
		}
		dShort, err := distrib.New(ts, 0)
		if err != nil {
			b.Fatal(err)
		}
		rShort, err := simnet.Simulate(dShort, par)
		if err != nil {
			b.Fatal(err)
		}
		long, short = rLong.Speedup, rShort.Speedup
	}
	b.ReportMetric(long, "speedup_longest_dim")
	b.ReportMetric(short, "speedup_shortest_dim")
}

// BenchmarkAblationLDSCompression quantifies §3.1's memory claim: the
// condensed rectangular LDS versus allocating the minimum enclosing box of
// each processor's share of the global data space.
func BenchmarkAblationLDSCompression(b *testing.B) {
	app, err := apps.SOR(24, 48)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(12, 10, 8))
	if err != nil {
		b.Fatal(err)
	}
	d, err := distrib.New(ts, 2)
	if err != nil {
		b.Fatal(err)
	}
	// The share's footprint lives in the *original* data space: the SOR
	// write reference A[t,i,j] uses unskewed coordinates, so invert the
	// skew T = [[1,0,0],[1,1,0],[2,0,1]] before taking the enclosing box
	// (§3.1: the footprint is non-rectangular even for rectangular tiles).
	unskew := ilin.MatFromRows([]int64{1, 0, 0}, []int64{-1, 1, 0}, []int64{-2, 0, 1})
	var ldsCells, boxCells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank := d.NumProcs() / 2 // a processor with full-length chains
		ldsCells = d.LDSSize(rank)
		var lo, hi ilin.Vec
		for t := int64(0); t < d.ChainLen[rank]; t++ {
			tile := d.TileAt(rank, t)
			tilePoints(ts, tile, func(z, jp ilin.Vec) bool {
				j := unskew.MulVec(ts.T.P.MulVec(tile).Add(ts.T.U.MulVec(z)))
				if lo == nil {
					lo, hi = j.Clone(), j.Clone()
				}
				for k := range j {
					if j[k] < lo[k] {
						lo[k] = j[k]
					}
					if j[k] > hi[k] {
						hi[k] = j[k]
					}
				}
				return true
			})
		}
		boxCells = 1
		for k := range lo {
			boxCells *= hi[k] - lo[k] + 1
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ldsCells), "lds_cells")
	b.ReportMetric(float64(boxCells), "enclosing_box_cells")
	b.ReportMetric(float64(boxCells)/float64(ldsCells), "compression_x")
}

// BenchmarkParallelExecSOR measures the real in-process execution of the
// SOR stencil under the non-rectangular tiling (correctness backbone).
func BenchmarkParallelExecSOR(b *testing.B) {
	app, err := apps.SOR(12, 24)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(6, 10, 8))
	if err != nil {
		b.Fatal(err)
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		b.Fatal(err)
	}
	size, _ := app.Nest.Size()
	b.SetBytes(size * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.RunParallelOpts(exec.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelExecSOROverlap is BenchmarkParallelExecSOR with halos
// sent through non-blocking Isends drained at chain end (§6 overlap
// scheme) — compare the two to see the runtime cost of the Isend path.
func BenchmarkParallelExecSOROverlap(b *testing.B) {
	app, err := apps.SOR(12, 24)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(6, 10, 8))
	if err != nil {
		b.Fatal(err)
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		b.Fatal(err)
	}
	size, _ := app.Nest.Size()
	b.SetBytes(size * 8)
	b.ResetTimer()
	var stats mpi.Stats
	for i := 0; i < b.N; i++ {
		if _, stats, err = p.RunParallelOpts(exec.RunOptions{Overlap: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.OverlappedSends), "overlapped_sends")
}

// BenchmarkSequentialExecSOR is the single-thread baseline for the above.
func BenchmarkSequentialExecSOR(b *testing.B) {
	app, err := apps.SOR(12, 24)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(6, 10, 8))
	if err != nil {
		b.Fatal(err)
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		b.Fatal(err)
	}
	size, _ := app.Nest.Size()
	b.SetBytes(size * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunSequential(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the compile-time cost (Fourier-Motzkin, HNF,
// tile dependencies) that the paper reports as "negligible".
func BenchmarkAnalyze(b *testing.B) {
	app, err := apps.SOR(100, 200)
	if err != nil {
		b.Fatal(err)
	}
	h := app.NonRect[0].H(51, 38, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.Analyze(app.Nest, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTTISScan measures lattice traversal throughput.
func BenchmarkTTISScan(b *testing.B) {
	app, err := apps.Jacobi(20, 40)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := tiling.New(app.NonRect[0].H(5, 10, 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total += tr.ScanTTIS(func(z, jp ilin.Vec, n int64) bool { return true })
	}
	_ = total
}

// BenchmarkMapAddress measures the hot-path LDS address computation.
func BenchmarkMapAddress(b *testing.B) {
	app, err := apps.Jacobi(20, 40)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(5, 10, 10))
	if err != nil {
		b.Fatal(err)
	}
	d, err := distrib.New(ts, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := d.Addresser(0)
	jp := ilin.NewVec(3, 4, 5)
	dp := ilin.NewVec(1, 1, 1)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += a.FlatRead(jp, dp, 2)
	}
	_ = sink
}

// BenchmarkSimulate measures simulator throughput on a mid-size schedule.
func BenchmarkSimulate(b *testing.B) {
	app, err := apps.ADI(32, 64)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[2].H(4, 17, 17))
	if err != nil {
		b.Fatal(err)
	}
	d, err := distrib.New(ts, 0)
	if err != nil {
		b.Fatal(err)
	}
	par := simnet.FastEthernetPIII()
	par.Width = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simnet.Simulate(d, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontendParse measures the source front-end on the SOR program.
func BenchmarkFrontendParse(b *testing.B) {
	src := `
let M = 100
let N = 200
for t = 1 .. M
for i = 1 .. N
for j = 1 .. N
A[t,i,j] = 0.3*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.2*A[t-1,i,j]
skew 1 0 0 / 1 1 0 / 2 0 1
tile 1/51 0 0 / 0 1/38 0 / -1/20 0 1/20
map 3
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frontend.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateC measures emitting the full MPI program for SOR.
func BenchmarkGenerateC(b *testing.B) {
	app, err := apps.SOR(100, 200)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(51, 38, 20))
	if err != nil {
		b.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := codegen.New(d, codegen.Options{Name: "sor", KernelStmt: "out[0] = R0[0];"})
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Generate()) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkOptimizerSearch measures the tile-shape search on ADI.
func BenchmarkOptimizerSearch(b *testing.B) {
	app, err := apps.ADI(16, 32)
	if err != nil {
		b.Fatal(err)
	}
	o := opt.Options{Params: simnet.FastEthernetPIII(), MapDim: -1, Factors: []int64{2, 4, 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Search(app.Nest, o); err != nil {
			b.Fatal(err)
		}
	}
}

// tilePoints walks tile jS of ts point by point in scan order — the rows of
// ScanTileRows expanded, z and jp reused buffers — until fn returns false.
func tilePoints(ts *tiling.TiledSpace, jS ilin.Vec, fn func(z, jp ilin.Vec) bool) {
	last := ts.T.N - 1
	ts.ScanTileRows(jS, func(z, jp ilin.Vec, n int64) bool {
		for ; n > 0; n-- {
			if !fn(z, jp) {
				return false
			}
			z[last]++
			jp[last] += ts.T.C[last]
		}
		return true
	})
}
