// Jacobi (§4.2 of the paper): the non-rectangular tiling H_nr has a
// non-unimodular H' (|det H'| = 2), so the transformed tile space is a
// lattice with holes: the second loop runs with stride c_2 = 2 and an
// incremental offset a_21 = 1, all derived from the Hermite normal form.
// This example shows that machinery end to end and verifies execution.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"
	"strings"

	"tilespace"
)

const (
	T = 12
	N = 24
)

func buildNest() (*tilespace.LoopNest, error) {
	nest, err := tilespace.NewLoopNest(
		[]string{"t", "i", "j"},
		[]int64{1, 1, 1}, []int64{T, N, N},
		[][]int64{
			{1, 0, 0},  // A[t-1, i, j]
			{1, 1, 0},  // A[t-1, i-1, j]
			{1, -1, 0}, // A[t-1, i+1, j]
			{1, 0, 1},  // A[t-1, i, j-1]
			{1, 0, -1}, // A[t-1, i, j+1]
		})
	if err != nil {
		return nil, err
	}
	// Skew T = [[1,0,0],[1,1,0],[1,0,1]] makes all components non-negative.
	return nest.Skew([][]int64{{1, 0, 0}, {1, 1, 0}, {1, 0, 1}})
}

// kernel is out[0] = 0.2·(r0 + r1 + r2 + r3 + r4), r_l being the value read
// through dependence l, summed left to right.
var kernel = tilespace.Statement(tilespace.Mul(tilespace.Const(0.2), tilespace.Add(tilespace.Add(tilespace.Add(tilespace.Add(
	tilespace.Read(0, 0), tilespace.Read(1, 0)), tilespace.Read(2, 0)), tilespace.Read(3, 0)), tilespace.Read(4, 0))))

func main() {
	nest, err := buildNest()
	if err != nil {
		log.Fatal(err)
	}

	// §4.2's H_nr: first row (1/x, -1/(2x), 0). The factor y must be even
	// or P = H⁻¹ is not integral (the library rejects odd y with a clear
	// error — try it).
	const x, y, z = 3, 10, 10
	hnr, err := tilespace.TilingFromRows([][]string{
		{"1/3", "-1/6", "0"},
		{"0", "1/10", "0"},
		{"0", "0", "1/10"},
	})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := tilespace.Compile(nest, hnr, tilespace.CompileOptions{
		MapDim: 0, // the paper maps Jacobi tiles along the first dimension
		Kernel: kernel,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The report shows H' = [[2,-1,0],[0,1,0],[0,0,1]] and its Hermite
	// normal form [[1,0,0],[1,2,0],[0,0,1]]: strides c = (1,2,1).
	report := prog.Report()
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "strides") || strings.Contains(line, "tile size") {
			fmt.Println(line)
		}
	}
	fmt.Printf("tile size %d = x·y·z = %d (the lattice holes do not change the tile volume)\n\n",
		prog.TileSize(), x*y*z)

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
	fmt.Println("verified: stride-2 lattice execution matches sequential exactly")

	// Odd y is structurally invalid for this family; show the diagnostic.
	if _, err := tilespace.TilingFromRows([][]string{
		{"1/3", "-1/6", "0"},
		{"0", "1/9", "0"},
		{"0", "0", "1/10"},
	}); err == nil {
		// Parsing succeeds; the rejection happens at Compile.
		bad, _ := tilespace.TilingFromRows([][]string{
			{"1/3", "-1/6", "0"}, {"0", "1/9", "0"}, {"0", "0", "1/10"},
		})
		if _, err := tilespace.Compile(nest, bad, tilespace.CompileOptions{Kernel: kernel}); err != nil {
			fmt.Printf("\nodd y correctly rejected: %v\n", err)
		}
	}
}
