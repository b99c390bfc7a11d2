package bench

import (
	"strings"
	"testing"

	"tilespace/internal/simnet"
)

func TestFactorFor(t *testing.T) {
	// [1, 256] with 4 tiles: 64 gives 5 (ragged), 65 gives exactly 4.
	if got := factorFor(1, 256, 4, false); tilesCount(1, 256, got) != 4 {
		t.Errorf("factorFor(1,256,4) = %d (tiles %d)", got, tilesCount(1, 256, got))
	}
	if got := factorFor(2, 300, 8, false); tilesCount(2, 300, got) != 8 {
		t.Errorf("factorFor(2,300,8) = %d (tiles %d)", got, tilesCount(2, 300, got))
	}
	if got := factorFor(2, 150, 4, true); got%2 != 0 {
		t.Errorf("even factor requested, got %d", got)
	}
	if got := factorFor(1, 3, 10, false); got < 1 {
		t.Errorf("degenerate factor %d", got)
	}
}

func fastParams() simnet.Params {
	return simnet.FastEthernetPIII()
}

// TestSORSweepShapes checks the paper's §4.1 claims on a reduced space:
// non-rect ≥ rect at every point, equal tile sizes, equal processor
// counts, and shorter schedules.
func TestSORSweepShapes(t *testing.T) {
	s, err := SORSweep("fig6", 24, 48, []int64{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.Run(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 3 {
		t.Fatalf("points = %d", len(series.Points))
	}
	for _, pt := range series.Points {
		r, nr := pt.Results["rect"], pt.Results["nr"]
		if r.Procs != nr.Procs {
			t.Errorf("z=%d: procs differ %d vs %d", pt.Value, r.Procs, nr.Procs)
		}
		if nr.Steps >= r.Steps {
			t.Errorf("z=%d: nr steps %d !< rect steps %d", pt.Value, nr.Steps, r.Steps)
		}
		if nr.Speedup < r.Speedup {
			t.Errorf("z=%d: nr speedup %.3f < rect %.3f", pt.Value, nr.Speedup, r.Speedup)
		}
	}
	if imp := series.ImprovementPercent("nr"); imp <= 0 {
		t.Errorf("improvement %.1f%% should be positive", imp)
	}
	if !strings.Contains(series.Table(), "S(nr)") {
		t.Error("table missing family column")
	}
}

func TestJacobiSweepShapes(t *testing.T) {
	s, err := JacobiSweep("fig8", 12, 24, []int64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.Run(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range series.Points {
		r, nr := pt.Results["rect"], pt.Results["nr"]
		if nr.Speedup < r.Speedup {
			t.Errorf("x=%d: nr %.3f < rect %.3f", pt.Value, nr.Speedup, r.Speedup)
		}
	}
}

// TestADISweepOrdering: §4.3's family ordering nr3 ≥ nr1, nr2 ≥ rect.
func TestADISweepOrdering(t *testing.T) {
	s, err := ADISweep("fig10", 16, 32, []int64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.Run(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range series.Points {
		r := pt.Results
		if r["nr3"].Speedup < r["nr1"].Speedup || r["nr3"].Speedup < r["nr2"].Speedup {
			t.Errorf("x=%d: nr3 not best: %v %v %v", pt.Value, r["nr3"].Speedup, r["nr1"].Speedup, r["nr2"].Speedup)
		}
		if r["nr1"].Speedup < r["rect"].Speedup || r["nr2"].Speedup < r["rect"].Speedup {
			t.Errorf("x=%d: nr1/nr2 below rect", pt.Value)
		}
	}
}

func TestFiguresBuildAtScale(t *testing.T) {
	figs, err := Figures(8) // tiny spaces for a build smoke test
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("figures = %d, want 6", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if !ids[id] {
			t.Errorf("missing %s", id)
		}
	}
}

// TestFigureRunAndRender runs one max-only figure end to end at a tiny
// scale and checks the rendering.
func TestFigureRunAndRender(t *testing.T) {
	figs, err := Figures(8)
	if err != nil {
		t.Fatal(err)
	}
	var f9 *Figure
	for _, f := range figs {
		if f.ID == "fig9" {
			f9 = f
		}
	}
	fr, err := f9.Run(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	out := fr.Render()
	for _, want := range []string{"fig9", "max S(rect)", "max S(nr3)", "improv%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if imp := fr.AverageImprovement(); imp <= 0 {
		t.Errorf("average improvement %.2f%% should be positive", imp)
	}
}
