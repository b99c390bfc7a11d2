package exec_test

import (
	"fmt"
	"reflect"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/tiling"
)

// This file is the planned-vs-legacy differential harness: every app of
// the paper's experiment suite (SOR, Jacobi, ADI, Heat3D), under both its
// rectangular and cone-derived tilings and in both communication modes,
// must produce a bit-identical global array AND bit-identical runtime
// traffic (message counts, value counts, per-rank split) whether it runs
// through the compiled tile plans or the reference per-point executor.
// Identical Stats pin down more than correctness: they prove the planned
// path sends the same messages with the same sizes in the same order.

type diffCase struct {
	name string
	p    *exec.Program
}

// diffCases builds the app × tiling matrix, skipping (with a log) factor
// choices an app's family rejects, and failing if too few survive.
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var out []diffCase
	add := func(name string, app *apps.App, err error, fam apps.TilingFamily, x, y, z int64) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts, err := tiling.Analyze(app.Nest, fam.H(x, y, z))
		if err != nil {
			t.Logf("skip %s (%s x=%d y=%d z=%d): %v", name, fam.Name, x, y, z, err)
			return
		}
		p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
		if err != nil {
			t.Logf("skip %s (%s x=%d y=%d z=%d): %v", name, fam.Name, x, y, z, err)
			return
		}
		out = append(out, diffCase{name, p})
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
		t.Fatalf("only %d differential cases built — factor choices too restrictive", len(out))
	}
	return out
}

// slowDiffCases are the two slowest matrix entries (heat3d is 4-D, the
// nonrect Jacobi grid is the widest); CI's -short run drops them and the
// static certifier matrix in internal/verify still covers both shapes.
var slowDiffCases = map[string]bool{"heat3d/rect": true, "jacobi/nonrect": true}

func TestPlannedMatchesLegacyDifferential(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && slowDiffCases[c.name] {
				t.Skipf("%s is one of the two slowest differential cases; run without -short", c.name)
			}
			seq, err := c.p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			for _, overlap := range []bool{false, true} {
				gL, sL, err := c.p.RunLegacy(overlap)
				if err != nil {
					t.Fatalf("legacy overlap=%v: %v", overlap, err)
				}
				gP, sP, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
				if err != nil {
					t.Fatalf("planned overlap=%v: %v", overlap, err)
				}
				if diff, at := gL.MaxAbsDiff(gP, c.p.ScanSpace); diff != 0 {
					t.Fatalf("overlap=%v: planned differs from legacy by %g at %v", overlap, diff, at)
				}
				// Legacy itself is pinned against the sequential oracle, so a
				// shared bug in both parallel paths cannot hide.
				if diff, at := seq.MaxAbsDiff(gP, c.p.ScanSpace); diff != 0 {
					t.Fatalf("overlap=%v: planned differs from sequential by %g at %v", overlap, diff, at)
				}
				if !reflect.DeepEqual(sL, sP) {
					t.Fatalf("overlap=%v: traffic stats differ\nlegacy:  %+v\nplanned: %+v", overlap, sL, sP)
				}
				rerunOnNaN(t, c.p, exec.RunOptions{Overlap: overlap}, gP, sP)
			}
		})
	}
}

// rerunOnNaN fills the LDS of every rank state p holds — the run before left
// one per rank — with NaN and runs opt on them: a run reads no LDS cell it
// did not write, so the Global must be want's bit for bit and the Stats
// wantStats.
func rerunOnNaN(t *testing.T, p *exec.Program, opt exec.RunOptions, want *exec.Global, wantStats mpi.Stats) {
	t.Helper()
	if n := p.FillHeldLDS(); n != p.Dist.NumProcs() {
		t.Fatalf("%d rank states held after a run, want one per rank (%d)", n, p.Dist.NumProcs())
	}
	g, s, err := p.RunParallelOpts(opt)
	if err != nil {
		t.Fatalf("run on NaN-filled held states: %v", err)
	}
	if at, differ := g.FirstBitDiff(want); differ {
		t.Fatalf("run on NaN-filled held states differs at %v", at)
	}
	if !reflect.DeepEqual(s, wantStats) {
		t.Fatalf("run on NaN-filled held states: stats differ\n got %+v\nwant %+v", s, wantStats)
	}
}
