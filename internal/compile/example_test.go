package compile_test

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
	"tilespace/internal/exec"
)

// ExampleCompile runs README's second Go block, which is copied verbatim
// between the marked lines: Jacobi's statement, compiled through the driver
// and run by the executor, where it lowers to one fused pass a row.
func ExampleCompile() {
	jacobi, _ := apps.Jacobi(4, 16)
	nest, h, initial := jacobi.Nest, jacobi.Rect.H(2, 8, 16), jacobi.Initial

	// README: begin
	// internal/apps: Jacobi, out = 0.2·(r0 + r1 + r2 + r3 + r4)
	sum := exec.Read(0, 0)
	for l := 1; l < 5; l++ {
		sum = exec.Add(sum, exec.Read(l, 0)) // reads[l][0], left to right
	}
	kernel := exec.Statement(exec.Mul(exec.Const(0.2), sum))
	// an opaque body is still a Kernel: exec.PointKernel(func(j, reads, out) {…})
	art, _ := compile.Compile(compile.Spec{Nest: nest, H: h, MapDim: -1, Kernel: kernel, Initial: initial})
	g, stats, _ := art.Prog.RunParallelOpts(exec.RunOptions{}) // art.Certificate(), art.C() on demand
	// README: end

	seq, _ := art.Prog.RunSequential()
	diff, _ := seq.MaxAbsDiff(g, art.Prog.ScanSpace)
	c, _ := kernel.C()
	fmt.Println(diff, stats.Messages > 0)
	fmt.Println(c)
	// Output:
	// 0 true
	// out[0] = (0.2 * ((((R0[0] + R1[0]) + R2[0]) + R3[0]) + R4[0]));
}

// TestREADMEStatementBlock: README's second Go block is ExampleCompile's
// marked lines, whitespace aside, so the snippet compiles and runs as shown.
func TestREADMEStatementBlock(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(readme), "```go\n")
	if len(blocks) < 3 {
		t.Fatalf("README has %d Go blocks, want at least 2", len(blocks)-1)
	}
	block, _, _ := strings.Cut(blocks[2], "```")
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, marked, _ := strings.Cut(string(src), "// README: begin\n")
	marked, _, _ = strings.Cut(marked, "// README: end")
	if got, want := strings.Fields(block), strings.Fields(marked); !slices.Equal(got, want) {
		t.Errorf("README's statement block:\n%s\nExampleCompile's marked lines:\n%s", block, marked)
	}
}
