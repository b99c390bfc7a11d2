// Codegen: emit the complete C+MPI program for a non-rectangularly tiled
// SOR — the deliverable of the paper's automatic code generation tool. The
// loop nest, its skew, the tiling and the kernel all come from the DSL
// program sor.nest (`tilec -src examples/codegen/sor.nest` compiles the same
// file); the C kernel is the parsed statement printed (Kernel.C), the
// statement the Go executor runs. The output compiles with
// `mpicc sor_nr.c -o sor_nr` on any MPI installation and runs with
// `mpirun -np <procs> ./sor_nr`.
//
//	go run ./examples/codegen            # print to stdout
//	go run ./examples/codegen sor_nr.c   # write to a file
package main

import (
	_ "embed"
	"fmt"
	"log"
	"os"

	"tilespace"
)

//go:embed sor.nest
var sor string

func main() {
	parsed, err := tilespace.ParseSource(sor)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := tilespace.Compile(parsed.Nest, parsed.Tiling, tilespace.CompileOptions{
		MapDim: parsed.MapDim, Width: parsed.Width, Kernel: parsed.Kernel,
	})
	if err != nil {
		log.Fatal(err)
	}

	src, err := prog.GenerateC(tilespace.CodegenOptions{Name: "sor_nr"})
	if err != nil {
		log.Fatal(err)
	}

	if len(os.Args) > 1 {
		if err := os.WriteFile(os.Args[1], []byte(src), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, needs %d MPI processes)\n",
			os.Args[1], len(src), prog.Processors())
		return
	}
	fmt.Print(src)
}
