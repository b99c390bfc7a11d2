// SOR (§4.1 of the paper): skew the Gauss Successive Over-Relaxation
// stencil, tile it with the rectangular baseline and with the
// non-rectangular transformation drawn from the tiling cone, verify both
// against sequential execution, and compare their simulated cluster times.
//
//	go run ./examples/sor
package main

import (
	"fmt"
	"log"

	"tilespace"
)

const (
	M = 24 // time steps (kept small so real verification stays quick)
	N = 48 // grid size
	w = 1.2
)

// buildNest returns the skewed SOR nest: the original dependencies contain
// negative components, so the loop is skewed with T = [[1,0,0],[1,1,0],
// [2,0,1]] before rectangular tiling becomes legal.
func buildNest() (*tilespace.LoopNest, error) {
	nest, err := tilespace.NewLoopNest(
		[]string{"t", "i", "j"},
		[]int64{1, 1, 1}, []int64{M, N, N},
		[][]int64{
			{0, 1, 0},  // A[t, i-1, j]
			{0, 0, 1},  // A[t, i, j-1]
			{1, -1, 0}, // A[t-1, i+1, j]
			{1, 0, -1}, // A[t-1, i, j+1]
			{1, 0, 0},  // A[t-1, i, j]
		})
	if err != nil {
		return nil, err
	}
	return nest.Skew([][]int64{{1, 0, 0}, {1, 1, 0}, {2, 0, 1}})
}

// kernel is out[0] = w/4·(r0 + r1 + r2 + r3) + (1−w)·r4, r_l being the value
// read through dependence l, summed left to right.
var kernel = tilespace.Statement(tilespace.Add(
	tilespace.Mul(tilespace.Const(w/4), tilespace.Add(tilespace.Add(tilespace.Add(
		tilespace.Read(0, 0), tilespace.Read(1, 0)), tilespace.Read(2, 0)), tilespace.Read(3, 0))),
	tilespace.Mul(tilespace.Const(1-w), tilespace.Read(4, 0))))

func initial(j []int64, out []float64) {
	// Initial grid and boundary values (position-dependent but
	// deterministic; j is in skewed coordinates, which is fine for a
	// reproducible boundary).
	out[0] = 0.5 + float64((j[1]*31+j[2]*17)%23)/46
}

func run(name string, nest *tilespace.LoopNest, rows [][]string) {
	h, err := tilespace.TilingFromRows(rows)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := tilespace.Compile(nest, h, tilespace.CompileOptions{
		MapDim: 2, Kernel: kernel, Initial: initial,
	})
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
	diff, at := seq.MaxAbsDiff(par)
	if diff != 0 {
		log.Fatalf("%s: parallel run differs from serial by %g at %v", name, diff, at)
	}
	// Same program with computation-communication overlap (§6 / ref [8]):
	// halos go out as non-blocking Isends drained at chain end. Results
	// must be identical; Stats shows the halos took the overlapped path.
	ov, err := prog.RunParallelOpts(tilespace.RunOptions{Overlap: true})
	if err != nil {
		log.Fatal(err)
	}
	ovDiff, _ := seq.MaxAbsDiff(ov)
	if ovDiff != 0 {
		log.Fatalf("%s: overlapped run differs from serial by %g", name, ovDiff)
	}
	rep, err := prog.Simulate(tilespace.FastEthernetPIII())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s procs=%2d tiles=%3d steps=%3d  verify diff=%g  overlapped sends=%d/%d  simulated speedup=%.2f (makespan %.2f ms)\n",
		name, prog.Processors(), prog.Tiles(), rep.Steps, diff,
		ov.Stats.OverlappedSends, ov.Stats.Messages, rep.Speedup, rep.Makespan*1e3)
}

func main() {
	nest, err := buildNest()
	if err != nil {
		log.Fatal(err)
	}
	rays, err := nest.ConeRays()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("skewed SOR tiling cone extreme rays (paper §4.1):")
	for _, r := range rays {
		fmt.Printf("  %v\n", r)
	}
	fmt.Println()

	// Equal factors x, y, z for both families: equal tile size,
	// communication volume and processor count — any runtime difference
	// is purely the schedule imposed by the tile shape.
	const x, y, z = "12", "10", "8"
	fmt.Printf("comparing tile shapes with x=%s, y=%s, z=%s (equal tile sizes):\n", x, y, z)
	run("rect", nest, [][]string{
		{"1/" + x, "0", "0"},
		{"0", "1/" + y, "0"},
		{"0", "0", "1/" + z},
	})
	run("nr", nest, [][]string{
		{"1/" + x, "0", "0"},
		{"0", "1/" + y, "0"},
		{"-1/" + z, "0", "1/" + z}, // third row parallel to cone ray (-1,0,1)
	})
	fmt.Println("\nthe non-rectangular shape shortens the linear schedule by M/z steps (§4.1),")
	fmt.Println("so it finishes earlier at identical communication volume.")
}
