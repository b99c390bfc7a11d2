// ADI integration (§4.3 of the paper): a two-array statement (X and B,
// value width 2) under four tiling families — rectangular, two partially
// cone-aligned shapes (nr1, nr2) and the fully cone-aligned nr3. With
// equal factors all four have the same tile size, communication volume and
// processor count; the simulated completion times reproduce the paper's
// ordering t_nr3 < t_nr1 = t_nr2 < t_r.
//
//	go run ./examples/adi
package main

import (
	"fmt"
	"log"

	"tilespace"
)

const (
	T = 16
	N = 32
)

func adiCoef(i, j int64) float64 {
	return 0.01 + float64((i*13+j*7)%8)/100
}

// kernel reads prev, up and left through dependences 0, 1 and 2; slot 0 is
// X and slot 1 is B. The coefficient a = A[i,j] comes with its C form.
var kernel = func() tilespace.Kernel {
	a := tilespace.Coef(func(j []int64) float64 { return adiCoef(j[1], j[2]) }, "(0.01 + (double)((j[1]*13 + j[2]*7) % 8) / 100)")
	x := func(dep int) *tilespace.Expr { return tilespace.Read(dep, 0) }
	b := func(dep int) *tilespace.Expr { return tilespace.Read(dep, 1) }
	aa := tilespace.Mul(a, a)
	return tilespace.Statement(
		// X = prev.X + left.X·a/left.B − up.X·a/up.B
		tilespace.Sub(tilespace.Add(x(0), tilespace.Div(tilespace.Mul(x(2), a), b(2))), tilespace.Div(tilespace.Mul(x(1), a), b(1))),
		// B = prev.B − a·a/left.B − a·a/up.B
		tilespace.Sub(tilespace.Sub(b(0), tilespace.Div(aa, b(2))), tilespace.Div(aa, b(1))),
	)
}()

func initial(j []int64, out []float64) {
	out[0] = 1
	out[1] = 2
}

func main() {
	nest, err := tilespace.NewLoopNest(
		[]string{"t", "i", "j"},
		[]int64{1, 1, 1}, []int64{T, N, N},
		[][]int64{
			{1, 0, 0}, // X[t-1,i,j],  B[t-1,i,j]
			{1, 1, 0}, // X[t-1,i-1,j], B[t-1,i-1,j]
			{1, 0, 1}, // X[t-1,i,j-1], B[t-1,i,j-1]
		})
	if err != nil {
		log.Fatal(err)
	}
	rays, err := nest.ConeRays()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ADI tiling cone rays: %v (paper: (1,-1,-1), (0,1,0), (0,0,1))\n\n", rays)

	families := []struct {
		name string
		rows [][]string
	}{
		{"rect", [][]string{{"1/4", "0", "0"}, {"0", "1/9", "0"}, {"0", "0", "1/9"}}},
		{"nr1", [][]string{{"1/4", "-1/4", "0"}, {"0", "1/9", "0"}, {"0", "0", "1/9"}}},
		{"nr2", [][]string{{"1/4", "0", "-1/4"}, {"0", "1/9", "0"}, {"0", "0", "1/9"}}},
		{"nr3", [][]string{{"1/4", "-1/4", "-1/4"}, {"0", "1/9", "0"}, {"0", "0", "1/9"}}},
	}
	fmt.Printf("%-6s %6s %6s %7s %12s %10s\n", "family", "procs", "steps", "verify", "makespan(ms)", "speedup")
	for _, f := range families {
		h, err := tilespace.TilingFromRows(f.rows)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := tilespace.Compile(nest, h, tilespace.CompileOptions{
			MapDim: 0, Width: 2, Kernel: kernel, Initial: initial,
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
		if diff, at := seq.MaxAbsDiff(par); diff != 0 {
			log.Fatalf("%s: parallel run differs from sequential by %g at %v", f.name, diff, at)
		}
		rep, err := prog.Simulate(tilespace.FastEthernetPIII())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %6d %6d %7s %12.3f %10.2f\n",
			f.name, rep.Procs, rep.Steps, "ok", rep.Makespan*1e3, rep.Speedup)
	}
	fmt.Println("\nnr3 (rows parallel to the tiling cone) yields the shortest schedule,")
	fmt.Println("confirming the Hodzic-Shang optimal tile shape theory the paper tests.")
}
