package exec_test

import (
	"slices"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/tiling"
)

// classProgram compiles app at the given size under its rectangular family
// (nr: its first non-rectangular one) with factors x, y, z.
func classProgram(t *testing.T, build func(t, n int64) (*apps.App, error), m, n int64, nr bool, x, y, z int64) *exec.Program {
	t.Helper()
	a, err := build(m, n)
	if err != nil {
		t.Fatal(err)
	}
	fam := a.Rect
	if nr {
		fam = a.NonRect[0]
	}
	ts, err := tiling.Analyze(a.Nest, fam.H(x, y, z))
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewProgram(ts, a.MapDim, a.Width, a.Kernel, a.Initial)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRowClasses pins what the row classes rest on. On the benchmark's two
// run plans — sor_fine (SOR, non-rectangular 2×4×4 tiles, rows of at most
// 4 points) and jacobi_coarse (Jacobi, rectangular 2×102×204) — every
// non-empty plan is one segment: each read sits at one offset from its
// write on every row. On Jacobi's non-rectangular tiling plans are cut into
// several segments whose offset vectors interleave in scan order (one
// recurs after another), and the executor, which runs a tile a segment at a
// time, computes bit for bit what RunSequential and the per-point tree walk
// (RunPointwise) compute.
func TestRowClasses(t *testing.T) {
	for _, c := range []struct {
		name    string
		build   func(t, n int64) (*apps.App, error)
		m, n    int64
		nr      bool
		x, y, z int64
	}{
		{"sor_fine", apps.SOR, 10, 40, true, 2, 4, 4},
		{"jacobi_coarse", apps.Jacobi, 8, 192, false, 2, 102, 204},
	} {
		p := classProgram(t, c.build, c.m, c.n, c.nr, c.x, c.y, c.z)
		plans := 0
		for r := 0; r < p.Dist.NumProcs(); r++ {
			rp, err := p.Dist.Plan(r)
			if err != nil {
				t.Fatal(err)
			}
			for ti, sl := range rp.Slots {
				if sl.Npts == 0 {
					continue
				}
				plans++
				if len(sl.Plan.Segs) != 1 {
					t.Errorf("%s: rank %d slot %d: %d segments, want 1", c.name, r, ti, len(sl.Plan.Segs))
				}
			}
		}
		if plans == 0 {
			t.Errorf("%s: no plan checked", c.name)
		}
	}

	p := classProgram(t, apps.Jacobi, 6, 12, true, 2, 4, 4)
	interleaved := 0
	for r := 0; r < p.Dist.NumProcs(); r++ {
		rp, err := p.Dist.Plan(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, sl := range rp.Slots {
			rows := 0
			for k, sg := range sl.Plan.Segs {
				rows += len(sg.Rows)
				if k > 0 && slices.Equal(sg.Off, sl.Plan.Segs[k-1].Off) {
					t.Fatalf("rank %d tile %v: segments %d and %d share an offset vector", r, sl.Tile, k-1, k)
				}
				for _, prev := range sl.Plan.Segs[:max(k-1, 0)] {
					if slices.Equal(sg.Off, prev.Off) {
						interleaved++
						break
					}
				}
			}
			if rows != len(sl.Plan.Rows) {
				t.Fatalf("rank %d tile %v: segments hold %d rows of %d", r, sl.Tile, rows, len(sl.Plan.Rows))
			}
		}
	}
	if interleaved == 0 {
		t.Fatal("no plan of the fixture has interleaving segments")
	}
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := p.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if at, differ := par.FirstBitDiff(seq); differ {
		t.Errorf("the parallel run differs from RunSequential at %v", at)
	}
	if at, differ := par.FirstBitDiff(p.RunPointwise()); differ {
		t.Errorf("the parallel run differs from the per-point tree walk at %v", at)
	}
}
