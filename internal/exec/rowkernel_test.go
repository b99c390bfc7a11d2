package exec_test

import (
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/tiling"
)

// BenchmarkRowKernel times the compute phase of the largest tile of each
// shipped statement — Jacobi's 0.2·Σ5, SOR's two scaled folds at in-row
// distance 1, Heat3D's Σ7/7 and ADI's width-2 statement with its Coef — and
// reports nanoseconds per point. The arms tile rectangularly, with rows of
// 24 to 108 points, but for sor_fine: the benchmark's SOR plan, non-rectangular
// tiles whose rows hold at most 4 points.
func BenchmarkRowKernel(b *testing.B) {
	for _, c := range []struct {
		name    string
		build   func(t, n int64) (*apps.App, error)
		t, n    int64
		x, y, z int64
		nr      bool // the app's first non-rectangular family, not Rect
	}{
		{"jacobi", apps.Jacobi, 8, 96, 2, 54, 108, false},
		{"sor", apps.SOR, 8, 48, 4, 24, 48, false},
		{"sor_fine", apps.SOR, 10, 40, 2, 4, 4, true},
		{"heat3d", apps.Heat3D, 4, 24, 2, 12, 24, false},
		{"adi", apps.ADI, 8, 96, 2, 48, 96, false},
	} {
		a, err := c.build(c.t, c.n)
		if err != nil {
			b.Fatal(err)
		}
		fam := a.Rect
		if c.nr {
			fam = a.NonRect[0]
		}
		ts, err := tiling.Analyze(a.Nest, fam.H(c.x, c.y, c.z))
		if err != nil {
			b.Fatal(err)
		}
		p, err := exec.NewProgram(ts, a.MapDim, a.Width, a.Kernel, a.Initial)
		if err != nil {
			b.Fatal(err)
		}
		sweep, points, err := p.LargestTileSweep()
		if err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			// One untimed sweep first: the runtime may start an OS thread
			// (six allocations) just after the GC that precedes every run,
			// which at -benchtime=1x would read as the sweep's.
			sweep()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
		})
	}
}
