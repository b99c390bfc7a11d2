package codegen

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	goexec "tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/tiling"
)

// seedDir holds the parser's accepted fuzz seeds.
var seedDir = filepath.Join("..", "frontend", "testdata", "seeds")

// compileDSL parses a DSL source — one without a `tile` directive gets
// rectangular tiles of side 2 — and compiles it for the Go executor.
func compileDSL(t *testing.T, src string, initial goexec.Initial) (*frontend.Program, *goexec.Program) {
	t.Helper()
	p, err := frontend.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiling == nil {
		rows := make([]string, p.Nest.N)
		for k := range rows {
			row := strings.Fields(strings.Repeat("0 ", p.Nest.N))
			row[k] = "1/2"
			rows[k] = strings.Join(row, " ")
		}
		if p, err = frontend.Parse(src + "\ntile " + strings.Join(rows, " / ") + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := tiling.Analyze(p.Nest, p.Tiling)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := goexec.NewProgram(ts, p.MapDim, p.Width, p.Kernel, initial)
	if err != nil {
		t.Fatal(err)
	}
	return p, prog
}

// dslC is the program the service and the benchmark emit for a DSL source.
func dslC(t *testing.T, name, src string) string {
	t.Helper()
	p, prog := compileDSL(t, src, nil)
	g, err := New(prog.Dist, Options{Name: name, Width: p.Width, KernelStmt: p.KernelC})
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate()
}

func pin(code string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(code)))[:16] }

// TestDSLGeneratedCPinned pins the C generated for the DSL sources the fuzzer
// and the benchmark feed the compiler: each accepted FuzzParse seed, and
// every kernel the benchmark's templates draw, one hash per template. The
// templates mirror benchmark/compile.go (drawnUnits: heat2d, sor3d) and
// benchmark/serve.go (serveSource) at a small size.
func TestDSLGeneratedCPinned(t *testing.T) {
	want := map[string]string{
		"seed/adi":        "9a0f57e7893f4a57",
		"seed/affine":     "c3c47de99037518d",
		"seed/comments":   "60e9b696c3183ee5",
		"seed/heat2d":     "2ec51b6edf35d68e",
		"seed/sor":        "8d0fab0e638bcc8e",
		"seed/sor_paper":  "c684ea63449f0172",
		"seed/triangle":   "1212c9455551580e",
		"seed/unary":      "b92bb5ab6a4bfe3e",
		"template/heat2d": "14d3015707bd7335",
		"template/serve":  "24b50f10f1753a9a",
		"template/sor3d":  "2affc395a76bcffb",
	}
	got := map[string]string{}
	seeds, err := filepath.Glob(filepath.Join(seedDir, "*.nest"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no seeds in %s (%v)", seedDir, err)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".nest")
		got["seed/"+name] = pin(dslC(t, name, string(src)))
	}
	var heat, sor, serve strings.Builder
	for c := 3; c <= 6; c++ {
		for k := 1; k <= 9; k++ {
			heat.WriteString(dslC(t, "heat2d", fmt.Sprintf("let M = 7\nlet N = 14\nfor t = 1 .. M\nfor i = 1 .. N\n"+
				"A[t,i] = 0.%d*(A[t-1,i] + A[t,i-1]) + %d\ntile 1/2 0 / 0 1/4\n", c, k)))
		}
	}
	for c := 2; c <= 3; c++ {
		for k := 1; k <= 3; k++ {
			for _, tile := range []string{"1/2 0 0 / 0 1/4 0 / 0 0 1/4", "1/2 0 0 / 0 1/4 0 / -1/4 0 1/4"} {
				sor.WriteString(dslC(t, "sor3d", fmt.Sprintf("let M = 4\nlet N = 7\nfor t = 1 .. M\nfor i = 1 .. N\nfor j = 1 .. N\n"+
					"A[t,i,j] = 0.%d*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.%d*A[t-1,i,j]\n"+
					"skew 1 0 0 / 1 1 0 / 2 0 1\ntile %s\nmap 3\n", c, k, tile)))
			}
		}
	}
	tiles := []string{"1/3 0 / 0 1/4", "1/3 0 / 0 1/6", "1/2 0 / 0 1/4"}
	for i := 0; i < 24; i++ {
		serve.WriteString(dslC(t, "tileserved", fmt.Sprintf("let M = 8\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\n"+
			"A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + %d\ntile %s\n", 12+4*(i%3), 1+i, tiles[i%len(tiles)])))
	}
	got["template/heat2d"], got["template/sor3d"], got["template/serve"] = pin(heat.String()), pin(sor.String()), pin(serve.String())
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: generated C hashes to %s, pinned %s", k, v, want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d sources, generated %d", len(want), len(got))
	}
}
