// Package bench reproduces the paper's evaluation (§4): for each of the
// six figures it builds the workload, sweeps tile-size factors, runs every
// tiling family through the cluster simulator, and renders the same series
// the paper plots — maximum speedups per iteration space (Figs. 5, 7, 9)
// and speedup versus tile size (Figs. 6, 8, 10).
package bench

import (
	"fmt"
	"strings"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
	"tilespace/internal/rat"
	"tilespace/internal/simnet"
)

// tilesCount is the number of tiles covering [lo, hi] with extent x.
func tilesCount(lo, hi, x int64) int64 {
	return rat.FloorDiv(hi, x) - rat.FloorDiv(lo, x) + 1
}

// factorFor finds a tile extent close to (hi-lo+1)/target whose floor-grid
// covers [lo, hi] with exactly target tiles (falling back to the nearest
// achievable count). When even is set only even extents are considered
// (the Jacobi H_nr needs an even factor for an integral P).
func factorFor(lo, hi, target int64, even bool) int64 {
	if target < 1 {
		target = 1
	}
	span := hi - lo + 1
	best, bestDiff := int64(0), int64(1<<62)
	for x := rat.CeilDiv(span, target) - 1; x <= rat.CeilDiv(span, target)+target+2; x++ {
		if x < 1 || (even && x%2 != 0) {
			continue
		}
		diff := tilesCount(lo, hi, x) - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff || (diff == bestDiff && best == 0) {
			best, bestDiff = x, diff
			if diff == 0 {
				break
			}
		}
	}
	if best == 0 {
		best = 1
	}
	return best
}

// Sweep is one experiment series: a workload, its tiling families, and the
// sweep of the varying factor.
type Sweep struct {
	Fig   string // "fig5" … "fig10"
	Space string // e.g. "M=100,N=200"
	App   *apps.App
	// Factors maps the sweep value to the (x, y, z) tile factors.
	Factors func(v int64) (x, y, z int64)
	Values  []int64
}

// Point is one measurement: a sweep value with one simulator result per
// tiling family.
type Point struct {
	Value    int64
	X, Y, Z  int64
	TileSize int64
	Results  map[string]*simnet.Result
}

// Series is a completed sweep.
type Series struct {
	Sweep    *Sweep
	Families []string
	Points   []Point
}

// Run executes the sweep under the given cluster model.
func (s *Sweep) Run(par simnet.Params) (*Series, error) {
	par.Width = s.App.Width
	families := append([]apps.TilingFamily{s.App.Rect}, s.App.NonRect...)
	out := &Series{Sweep: s}
	for _, f := range families {
		out.Families = append(out.Families, f.Name)
	}
	for _, v := range s.Values {
		x, y, z := s.Factors(v)
		pt := Point{Value: v, X: x, Y: y, Z: z, Results: map[string]*simnet.Result{}}
		for _, f := range families {
			d, err := compile.Distribute(s.App.Nest, f.H(x, y, z), s.App.MapDim)
			if err != nil {
				return nil, fmt.Errorf("%s %s %s (x=%d,y=%d,z=%d): %w", s.Fig, s.Space, f.Name, x, y, z, err)
			}
			if size := d.TS.T.TileSize; pt.TileSize == 0 {
				pt.TileSize = size
			} else if pt.TileSize != size {
				return nil, fmt.Errorf("%s: tile sizes differ between families (%d vs %d)", s.Fig, pt.TileSize, size)
			}
			res, err := simnet.Simulate(d, par)
			if err != nil {
				return nil, err
			}
			pt.Results[f.Name] = res
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// MaxSpeedups returns each family's best speedup over the sweep (the
// quantity Figures 5, 7 and 9 plot per iteration space).
func (s *Series) MaxSpeedups() map[string]float64 {
	best := map[string]float64{}
	for _, pt := range s.Points {
		for fam, res := range pt.Results {
			if res.Speedup > best[fam] {
				best[fam] = res.Speedup
			}
		}
	}
	return best
}

// ImprovementPercent returns the mean percentage speedup improvement of
// the named family over the rectangular baseline across the sweep — the
// paper's §4.4 headline statistic (SOR 17.3%, Jacobi 9.1%, ADI 10.1%).
func (s *Series) ImprovementPercent(family string) float64 {
	var sum float64
	var n int
	for _, pt := range s.Points {
		r, okR := pt.Results["rect"]
		f, okF := pt.Results[family]
		if !okR || !okF || r.Speedup == 0 {
			continue
		}
		sum += (f.Speedup - r.Speedup) / r.Speedup * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table renders the series as an aligned text table (one row per sweep
// value, one speedup column per family).
func (s *Series) Table() string {
	var b strings.Builder
	fams := append([]string(nil), s.Families...)
	fmt.Fprintf(&b, "%s  %s (%s)\n", s.Sweep.Fig, s.Sweep.App.Name, s.Sweep.Space)
	fmt.Fprintf(&b, "%8s %8s %14s %6s %6s", "sweep", "tile", "factors", "procs", "steps")
	for _, f := range fams {
		fmt.Fprintf(&b, " %10s", "S("+f+")")
	}
	b.WriteByte('\n')
	for _, pt := range s.Points {
		any := pt.Results[fams[0]]
		fmt.Fprintf(&b, "%8d %8d %14s %6d %6d", pt.Value, pt.TileSize,
			fmt.Sprintf("%d/%d/%d", pt.X, pt.Y, pt.Z), any.Procs, any.Steps)
		for _, f := range fams {
			fmt.Fprintf(&b, " %10.2f", pt.Results[f].Speedup)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
