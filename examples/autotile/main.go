// Autotile: let the framework choose the tile shape. The optimizer
// enumerates the rectangular family and the cone-derived family (rows on
// the dependence cone's extreme rays, the Hodzic-Shang optimal shapes)
// over a factor grid, ranks every legal candidate with the analytic
// schedule model, confirms the winner in the discrete-event simulator,
// and verifies it by real execution — the automated version of the
// paper's experimental comparison.
//
//	go run ./examples/autotile
package main

import (
	"fmt"
	"log"
	"strings"

	"tilespace"
)

func main() {
	// The ADI dependence structure (§4.3) on a small space.
	nest, err := tilespace.NewLoopNest(
		[]string{"t", "i", "j"},
		[]int64{1, 1, 1}, []int64{16, 32, 32},
		[][]int64{{1, 0, 0}, {1, 1, 0}, {1, 0, 1}})
	if err != nil {
		log.Fatal(err)
	}

	res, err := tilespace.Optimize(nest, tilespace.SearchOptions{
		Params:  tilespace.FastEthernetPIII(),
		MapDim:  -1,
		Factors: []int64{2, 4, 8},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("evaluated %d legal candidates (%d skipped)\n\n",
		len(res.Candidates), res.Skipped)
	fmt.Printf("%-6s %-10s %9s %6s %6s %9s\n", "family", "factors", "tile", "procs", "steps", "S(model)")
	show := res.Candidates
	if len(show) > 8 {
		show = show[:8]
	}
	for _, c := range show {
		fmt.Printf("%-6s %-10s %9d %6d %6d %9.2f\n",
			c.Family, fmt.Sprint(c.Factors), c.TileSize, c.Procs, c.Estimate.Steps, c.Estimate.Speedup)
	}

	best := res.Best
	fmt.Printf("\nwinner: %s family, factors %v\nH =\n", best.Family, best.Factors)
	for _, line := range strings.Split(fmt.Sprint(best.H), "\n") {
		fmt.Printf("  %s\n", line)
	}

	// Compile and verify the winner with a real stencil.
	// out[0] = ((0.4·r0 + 0.3·r1) + 0.3·r2) + 1, r_l read through dependence l.
	term := func(c float64, l int) *tilespace.Expr { return tilespace.Mul(tilespace.Const(c), tilespace.Read(l, 0)) }
	kernel := tilespace.Statement(tilespace.Add(tilespace.Add(tilespace.Add(term(0.4, 0), term(0.3, 1)), term(0.3, 2)), tilespace.Const(1)))
	prog, err := tilespace.Compile(nest, tilespace.CandidateTiling(best),
		tilespace.CompileOptions{MapDim: best.MapDim, Kernel: kernel})
	if err != nil {
		log.Fatal(err)
	}
	seq, err := prog.RunSequential()
	if err != nil {
		log.Fatal(err)
	}
	par, err := prog.RunParallel()
	if err != nil {
		log.Fatal(err)
	}
	if diff, at := seq.MaxAbsDiff(par); diff != 0 {
		log.Fatalf("verification FAILED: %g at %v", diff, at)
	}
	sim, err := prog.Simulate(tilespace.FastEthernetPIII())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverified by real execution; simulator confirms speedup %.2f on %d procs\n",
		sim.Speedup, sim.Procs)
}
