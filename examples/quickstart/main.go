// Quickstart: tile a 2-D wavefront loop, run it in parallel, verify it
// against sequential execution, and predict cluster performance.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tilespace"
)

func main() {
	// The loop we are compiling (a first-order 2-D recurrence):
	//
	//	FOR i = 0 TO 399 DO
	//	  FOR j = 0 TO 399 DO
	//	    A[i,j] = 1 + A[i-1,j] + A[i,j-1]
	//
	// Dependencies: d1 = (1,0), d2 = (0,1).
	nest, err := tilespace.NewLoopNest(
		[]string{"i", "j"},
		[]int64{0, 0}, []int64{399, 399},
		[][]int64{{1, 0}, {0, 1}},
	)
	if err != nil {
		log.Fatal(err)
	}

	// A 50×50 rectangular tiling: H = diag(1/50, 1/50).
	h, err := tilespace.RectangularTiling(50, 50)
	if err != nil {
		log.Fatal(err)
	}

	// The loop body as a statement: out[0] = (1 + reads[0][0]) + reads[1][0],
	// where reads[l] is the value at j − d_l.
	one, up, left := tilespace.Const(1), tilespace.Read(0, 0), tilespace.Read(1, 0)
	prog, err := tilespace.Compile(nest, h, tilespace.CompileOptions{
		MapDim: -1, // map tiles along the longest dimension (§3.1)
		Kernel: tilespace.Statement(tilespace.Add(tilespace.Add(one, up), left)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d tiles of %d iterations on %d processors\n",
		prog.Tiles(), prog.TileSize(), prog.Processors())

	// Run the generated data-parallel program (goroutine per processor,
	// §3.2 receive→compute→send protocol) and the sequential reference.
	par, err := prog.RunParallel()
	if err != nil {
		log.Fatal(err)
	}
	seq, err := prog.RunSequential()
	if err != nil {
		log.Fatal(err)
	}
	if diff, at := seq.MaxAbsDiff(par); diff != 0 {
		log.Fatalf("verification FAILED: diff %g at %v", diff, at)
	}
	fmt.Printf("verified: parallel result matches sequential exactly "+
		"(%d messages, %d values exchanged)\n", par.Stats.Messages, par.Stats.Values)

	// A[399,399] counts lattice paths weighted by the recurrence.
	fmt.Printf("A[399,399] = %g\n", par.At([]int64{399, 399})[0])

	// Predict performance on the paper's cluster (16× Pentium III /
	// FastEthernet).
	rep, err := prog.Simulate(tilespace.FastEthernetPIII())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated cluster: makespan %.2f ms, speedup %.2f on %d procs, utilization %.0f%%\n",
		rep.Makespan*1e3, rep.Speedup, rep.Procs, rep.Utilization*100)
}
