package distrib_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/frontend"
	"tilespace/internal/tiling"
)

// tableCase is one loop nest × tiling whose compiled protocol the tile-table
// tests check.
type tableCase struct {
	name  string
	nest  func() (*tiling.TiledSpace, int, error) // the analyzed space and its mapping dimension
	drawn bool
}

// tableCases lists the app × tiling matrix the certifier's tests run
// (verify's matrixCases) and DSL sources drawn the way the compile_suite
// benchmark draws them: 2-D heat nests and skewed 3-D SOR nests with
// rectangular and non-rectangular tiles.
func tableCases() []tableCase {
	var out []tableCase
	app := func(name string, mk func() (*apps.App, error), fam func(*apps.App) apps.TilingFamily, x, y, z int64) {
		out = append(out, tableCase{name: name, nest: func() (*tiling.TiledSpace, int, error) {
			a, err := mk()
			if err != nil {
				return nil, 0, err
			}
			ts, err := tiling.Analyze(a.Nest, fam(a).H(x, y, z))
			return ts, a.MapDim, err
		}})
	}
	sor := func() (*apps.App, error) { return apps.SOR(4, 10) }
	jac := func() (*apps.App, error) { return apps.Jacobi(8, 12) }
	adi := func() (*apps.App, error) { return apps.ADI(8, 10) }
	rect := func(a *apps.App) apps.TilingFamily { return a.Rect }
	nonRect := func(i int) func(*apps.App) apps.TilingFamily {
		return func(a *apps.App) apps.TilingFamily { return a.NonRect[i] }
	}
	app("sor/rect", sor, rect, 2, 4, 4)
	app("sor/rect-ragged", sor, rect, 2, 3, 5)
	app("sor/nonrect", sor, nonRect(0), 2, 4, 4)
	app("jacobi/rect", jac, rect, 2, 3, 3)
	app("jacobi/nonrect", jac, nonRect(0), 2, 4, 4)
	app("adi/rect", adi, rect, 2, 3, 3)
	for i := 0; i < 3; i++ {
		app(fmt.Sprintf("adi/nonrect%d", i), adi, nonRect(i), 2, 3, 3)
	}
	app("heat3d/rect", func() (*apps.App, error) { return apps.Heat3D(6, 8) }, rect, 2, 2, 2)

	// A tiling whose innermost lattice stride is 2, so a region's share of a
	// row starts at a rounded-up offset.
	out = append(out, tableCase{name: "stride2", nest: func() (*tiling.TiledSpace, int, error) {
		p, err := frontend.Parse("let M = 12\nlet N = 20\nfor t = 1 .. M\nfor i = 1 .. N\n" +
			"A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 1\ntile 1/2 1/4 / 0 1/4\nmap 1\n")
		if err != nil {
			return nil, 0, err
		}
		ts, err := tiling.Analyze(p.Nest, p.Tiling)
		if err == nil && ts.T.C[1] != 2 {
			err = fmt.Errorf("innermost lattice stride %d, want 2", ts.T.C[1])
		}
		return ts, p.MapDim, err
	}})

	rng := rand.New(rand.NewSource(7))
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	for i := 0; i < 8; i++ {
		var b strings.Builder
		if i%2 == 0 {
			fmt.Fprintf(&b, "let M = %d\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\n", pick(7, 9), pick(14, 18))
			fmt.Fprintf(&b, "A[t,i] = 0.%d*(A[t-1,i] + A[t,i-1]) + 1\n", pick(3, 6))
			fmt.Fprintf(&b, "tile 1/%d 0 / 0 1/%d\n", pick(2, 3), pick(4, 6))
		} else {
			fmt.Fprintf(&b, "let M = 4\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\nfor j = 1 .. N\n", pick(7, 8))
			b.WriteString("A[t,i,j] = 0.2*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.1*A[t-1,i,j]\n")
			b.WriteString("skew 1 0 0 / 1 1 0 / 2 0 1\n")
			if x, y := pick(2, 3), pick(4, 5); rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "tile 1/%d 0 0 / 0 1/%d 0 / 0 0 1/4\n", x, y)
			} else {
				fmt.Fprintf(&b, "tile 1/%d 0 0 / 0 1/%d 0 / -1/4 0 1/4\n", x, y)
			}
			b.WriteString("map 3\n")
		}
		src := b.String()
		out = append(out, tableCase{name: fmt.Sprintf("drawn%d", i), drawn: true, nest: func() (*tiling.TiledSpace, int, error) {
			p, err := frontend.Parse(src)
			if err != nil {
				return nil, 0, err
			}
			ts, err := tiling.Analyze(p.Nest, p.Tiling)
			return ts, p.MapDim, err
		}})
	}
	return out
}

// newDist builds c's distribution afresh.
func (c tableCase) newDist(t testing.TB) *distrib.Distribution {
	t.Helper()
	ts, m, err := c.nest()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if m < 0 {
		m = distrib.ChooseMappingDim(ts)
	}
	d, err := distrib.New(ts, m)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return d
}

// TestPlansMatchOracles: every rank's compiled tables — point counts, sends,
// inbound rows, region runs — are what the per-point oracles give (the
// region enumerated and merged point by point, counts closed-form under a
// minimum TTIS coordinate, minsucc through the tile loops' bounds), for
// every case of the certifier's matrix and every drawn DSL source.
func TestPlansMatchOracles(t *testing.T) {
	drawn := 0
	for _, c := range tableCases() {
		d := c.newDist(t)
		for r := 0; r < d.NumProcs(); r++ {
			if err := d.OracleMismatch(r); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if c.drawn && d.NumProcs() > 1 {
			drawn++
		}
	}
	if drawn < 4 {
		t.Fatalf("only %d drawn sources spread over more than one rank", drawn)
	}
}

// TestConcurrentPlanMatchesSerial compiles every rank of one distribution
// concurrently — the ranks share the tile table and the shape table; every
// other rank compiles its schedule level alone first, so tiles counted
// without rows meet tiles scanned with them — and requires each chain to
// equal a serial compile's. Run under -race.
func TestConcurrentPlanMatchesSerial(t *testing.T) {
	for _, c := range tableCases() {
		serial, shared := c.newDist(t), c.newDist(t)
		var wg sync.WaitGroup
		errs := make([]error, shared.NumProcs())
		for r := range errs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if r%2 == 1 {
					shared.Schedule(r)
				}
				_, errs[r] = shared.Plan(r)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			want, werr := serial.Plan(r)
			got, _ := shared.Plan(r)
			if err != nil || werr != nil {
				t.Fatalf("%s: rank %d: %v / %v", c.name, r, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: rank %d compiled concurrently differs from the serial compile", c.name, r)
			}
		}
		if shared.NumShapes() != serial.NumShapes() {
			t.Fatalf("%s: %d shapes compiled concurrently, %d serially", c.name, shared.NumShapes(), serial.NumShapes())
		}
	}
}

// BenchmarkPlan times a cold compile of every rank's chain over the
// tile-table cases — the certifier's matrix and the drawn DSL sources —
// from distrib.New on: "schedule" compiles the schedule level alone, "all"
// both levels, what a certification or a first run pays before its tables
// exist.
func BenchmarkPlan(b *testing.B) {
	var spaces []*distrib.Distribution
	for _, c := range tableCases() {
		spaces = append(spaces, c.newDist(b))
	}
	for _, level := range []string{"schedule", "all"} {
		b.Run(level, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range spaces {
					d, err := distrib.New(s.TS, s.M)
					for r := 0; err == nil && r < d.NumProcs(); r++ {
						if level == "schedule" {
							_, err = d.Schedule(r)
						} else {
							_, err = d.Plan(r)
						}
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
