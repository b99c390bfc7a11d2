package tiling_test

import (
	"reflect"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/tiling"
)

type analyzeCase struct {
	name string
	nest *loopnest.Nest
	h    *ilin.RatMat
}

// shippedCases are the nine shipped app × tiling-family configurations of
// the compile suite (SOR, Jacobi and ADI over 8×24 under every family,
// Heat3D 6×8 rectangular), and coarse is jacobi_coarse: Jacobi 8×192 under
// the rectangular tiling (2, 102, 204).
func shippedCases(t testing.TB) (shipped []analyzeCase, coarse analyzeCase) {
	t.Helper()
	for _, cfg := range []struct {
		app     func() (*apps.App, error)
		x, y, z int64
		nonRect bool
	}{
		{func() (*apps.App, error) { return apps.SOR(8, 24) }, 2, 4, 4, true},
		{func() (*apps.App, error) { return apps.Jacobi(8, 24) }, 2, 4, 4, true},
		{func() (*apps.App, error) { return apps.ADI(8, 24) }, 2, 6, 6, true},
		{func() (*apps.App, error) { return apps.Heat3D(6, 8) }, 2, 2, 2, false},
	} {
		a, err := cfg.app()
		if err != nil {
			t.Fatal(err)
		}
		fams := []apps.TilingFamily{a.Rect}
		if cfg.nonRect {
			fams = append(fams, a.NonRect...)
		}
		for _, f := range fams {
			shipped = append(shipped, analyzeCase{a.Name + "_" + f.Name, a.Nest, f.H(cfg.x, cfg.y, cfg.z)})
		}
	}
	jac, err := apps.Jacobi(8, 192)
	if err != nil {
		t.Fatal(err)
	}
	return shipped, analyzeCase{"jacobi_coarse", jac.Nest, jac.Rect.H(2, 102, 204)}
}

// TestShippedTileDepsMatchPointSweep: on every shipped configuration and on
// jacobi_coarse, the D^S Analyze finds by jumping along TTIS rows is the
// point-by-point sweep's.
func TestShippedTileDepsMatchPointSweep(t *testing.T) {
	shipped, coarse := shippedCases(t)
	for _, c := range append(shipped, coarse) {
		ts, err := tiling.Analyze(c.nest, c.h)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := tiling.TileDepsPointwise(ts.T, ts.DP); !reflect.DeepEqual(ts.DS, want) {
			t.Errorf("%s: D^S = %v, the point sweep gives %v", c.name, ts.DS, want)
		}
	}
}

// BenchmarkAnalyze times tiling.Analyze cold: /shipped over the nine
// shipped configurations per iteration, /coarse over jacobi_coarse.
func BenchmarkAnalyze(b *testing.B) {
	shipped, coarse := shippedCases(b)
	for _, bc := range []struct {
		name  string
		cases []analyzeCase
	}{{"shipped", shipped}, {"coarse", []analyzeCase{coarse}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range bc.cases {
					if _, err := tiling.Analyze(c.nest, c.h); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
