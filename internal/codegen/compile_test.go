package codegen

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	goexec "tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

func requireCC(t *testing.T) string {
	t.Helper()
	cc, err := exec.LookPath("gcc")
	if err != nil {
		if cc, err = exec.LookPath("cc"); err != nil {
			t.Skip("no C compiler available")
		}
	}
	return cc
}

// TestSequentialCMatchesGoExecutor compiles and runs the generated §2.3
// sequential tiled C program and compares its checksum against the Go
// tiled executor running the same kernel — an end-to-end proof that the
// emitted loop bounds, lattice traversal and addressing are correct C.
func TestSequentialCMatchesGoExecutor(t *testing.T) {
	cc := requireCC(t)
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(3, 7, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Bounded, order-robust kernel: values stay O(1); the final checksums
	// are compared with a small relative tolerance because C and Go sum
	// the cells in different orders.
	kernelC := "$W[0] = 0.25*$R0[0] + 0.25*$R1[0] + 0.125*$R2[0] + 0.125*$R3[0] + 0.25*$R4[0] + 1.0;"
	kernelGo := goexec.PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
		out[0] = 0.25*reads[0][0] + 0.25*reads[1][0] + 0.125*reads[2][0] + 0.125*reads[3][0] + 0.25*reads[4][0] + 1.0
	})
	src, err := GenerateSequential(ts, Options{
		Name:        "sorseq",
		KernelStmt:  kernelC,
		InitialStmt: "out[0] = 0.5;",
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cPath := filepath.Join(dir, "sorseq.c")
	if err := os.WriteFile(cPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "sorseq")
	if out, err := exec.Command(cc, "-O1", "-o", bin, cPath, "-lm").CombinedOutput(); err != nil {
		t.Fatalf("compile failed: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	fields := strings.Fields(string(out))
	if len(fields) < 3 {
		t.Fatalf("unexpected output %q", out)
	}
	cSum, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		t.Fatalf("parse checksum from %q: %v", out, err)
	}

	prog, err := goexec.NewProgram(ts, app.MapDim, 1, kernelGo,
		func(j ilin.Vec, out []float64) { out[0] = 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	g, err := prog.RunTiledSequential()
	if err != nil {
		t.Fatal(err)
	}
	var goSum float64
	prog.ScanSpace(func(j ilin.Vec) bool {
		goSum += g.At(j)[0]
		return true
	})
	rel := math.Abs(cSum-goSum) / math.Max(1, math.Abs(goSum))
	if rel > 1e-9 {
		t.Errorf("C checksum %.17g differs from Go %.17g (rel %.2e)", cSum, goSum, rel)
	}
}

// mockMPIHeader is a minimal mpi.h sufficient to syntax-check the
// generated parallel programs without an MPI installation.
const mockMPIHeader = `#ifndef MOCK_MPI_H
#define MOCK_MPI_H
typedef int MPI_Comm;
typedef int MPI_Datatype;
typedef int MPI_Op;
typedef struct { int s; } MPI_Status;
#define MPI_COMM_WORLD 0
#define MPI_DOUBLE 1
#define MPI_SUM 2
#define MPI_STATUS_IGNORE ((MPI_Status *)0)
int MPI_Init(int *argc, char ***argv);
int MPI_Comm_rank(MPI_Comm comm, int *rank);
int MPI_Comm_size(MPI_Comm comm, int *size);
int MPI_Send(const void *buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm);
int MPI_Recv(void *buf, int count, MPI_Datatype dt, int src, int tag, MPI_Comm comm, MPI_Status *st);
int MPI_Reduce(const void *send, void *recv, int count, MPI_Datatype dt, MPI_Op op, int root, MPI_Comm comm);
int MPI_Abort(MPI_Comm comm, int code);
int MPI_Finalize(void);
double MPI_Wtime(void);
#endif
`

// TestParallelCCompiles syntax-checks the generated MPI programs for all
// three workloads with a strict gcc invocation and a mock mpi.h.
func TestParallelCCompiles(t *testing.T) {
	cc := requireCC(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mpi.h"), []byte(mockMPIHeader), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		gen  func() (string, error)
	}{
		{"sor", func() (string, error) {
			app, err := apps.SOR(8, 16)
			if err != nil {
				return "", err
			}
			ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 8, 4))
			if err != nil {
				return "", err
			}
			d, err := distrib.New(ts, app.MapDim)
			if err != nil {
				return "", err
			}
			g, err := New(d, Options{Name: "sor", KernelStmt: "out[0] = R0[0] + R4[0];"})
			if err != nil {
				return "", err
			}
			return g.Generate(), nil
		}},
		{"jacobi", func() (string, error) {
			app, err := apps.Jacobi(6, 10)
			if err != nil {
				return "", err
			}
			ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 4, 4))
			if err != nil {
				return "", err
			}
			d, err := distrib.New(ts, app.MapDim)
			if err != nil {
				return "", err
			}
			g, err := New(d, Options{Name: "jacobi", KernelStmt: "out[0] = 0.2*(R0[0]+R1[0]+R2[0]+R3[0]+R4[0]);"})
			if err != nil {
				return "", err
			}
			return g.Generate(), nil
		}},
		{"adi", func() (string, error) {
			app, err := apps.ADI(8, 12)
			if err != nil {
				return "", err
			}
			ts, err := tiling.Analyze(app.Nest, app.NonRect[2].H(2, 4, 4))
			if err != nil {
				return "", err
			}
			d, err := distrib.New(ts, app.MapDim)
			if err != nil {
				return "", err
			}
			g, err := New(d, Options{Name: "adi", Width: 2,
				KernelStmt: "out[0] = R0[0]; out[1] = R0[1];"})
			if err != nil {
				return "", err
			}
			return g.Generate(), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.name+".c")
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(cc, "-std=c99", "-Wall", "-Werror", "-fsyntax-only",
				fmt.Sprintf("-I%s", dir), path)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("generated %s.c does not compile: %v\n%s", c.name, err, out)
			}
		})
	}
}

// TestParallelCRunsUnderMockMPI is the deepest codegen test: it compiles
// the generated MPI program against the fork-based mock MPI in
// testdata/mockmpi, executes it with one OS process per rank, and
// compares the reduced checksum against the Go parallel executor running
// the same kernel — the full §3.2 protocol validated twice, in two
// languages, over two runtimes.
func TestParallelCRunsUnderMockMPI(t *testing.T) {
	cc := requireCC(t)
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(3, 7, 5))
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	kernelC := "$W[0] = 0.25*$R0[0] + 0.25*$R1[0] + 0.125*$R2[0] + 0.125*$R3[0] + 0.25*$R4[0] + 1.0;"
	kernelGo := goexec.PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
		out[0] = 0.25*reads[0][0] + 0.25*reads[1][0] + 0.125*reads[2][0] + 0.125*reads[3][0] + 0.25*reads[4][0] + 1.0
	})
	g, err := New(d, Options{
		Name:        "sorpar",
		KernelStmt:  replacePlaceholders(kernelC, ts.Nest.Q()),
		InitialStmt: "out[0] = 0.5;",
	})
	if err != nil {
		t.Fatal(err)
	}
	src := g.Generate()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sorpar.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mockDir, err := filepath.Abs("testdata/mockmpi")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "sorpar")
	cmd := exec.Command(cc, "-O1", "-std=gnu99", "-I", mockDir,
		"-o", bin, filepath.Join(dir, "sorpar.c"), filepath.Join(mockDir, "mpi.c"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("compile failed: %v\n%s", err, out)
	}
	run := exec.Command(bin)
	run.Env = append(os.Environ(), fmt.Sprintf("MOCK_MPI_SIZE=%d", d.NumProcs()))
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("mock-MPI run failed: %v\n%s", err, out)
	}
	// Output: "sorpar: N procs, checksum X, T s"
	fields := strings.Fields(string(out))
	var cSum float64
	found := false
	for i, f := range fields {
		if f == "checksum" && i+1 < len(fields) {
			cSum, err = strconv.ParseFloat(strings.TrimSuffix(fields[i+1], ","), 64)
			if err != nil {
				t.Fatalf("parse checksum from %q: %v", out, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no checksum in output %q", out)
	}

	prog, err := goexec.NewProgram(ts, app.MapDim, 1, kernelGo,
		func(j ilin.Vec, out []float64) { out[0] = 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	gres, _, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	var goSum float64
	prog.ScanSpace(func(j ilin.Vec) bool {
		goSum += gres.At(j)[0]
		return true
	})
	rel := math.Abs(cSum-goSum) / math.Max(1, math.Abs(goSum))
	if rel > 1e-9 {
		t.Errorf("C parallel checksum %.17g differs from Go %.17g (rel %.2e)", cSum, goSum, rel)
	}
}

// TestDSLToMockMPIPipeline is the complete compiler pipeline in one test:
// parse a two-array ADI program from the paper's loop notation, compile it
// to MPI C, execute the C under the fork-based mock MPI, and compare the
// checksum against the Go runtime executing the *same parsed program*.
func TestDSLToMockMPIPipeline(t *testing.T) {
	cc := requireCC(t)
	src := `
let T = 5
let N = 9
for t = 1 .. T
for i = 1 .. N
for j = 1 .. N
X[t,i,j] = X[t-1,i,j] + X[t-1,i,j-1]*0.05/B[t-1,i,j-1] - X[t-1,i-1,j]*0.05/B[t-1,i-1,j]
B[t,i,j] = B[t-1,i,j] - 0.05*0.05/B[t-1,i,j-1] - 0.05*0.05/B[t-1,i-1,j]
tile 1/2 0 0 / 0 1/3 0 / 0 0 1/3
map 1
`
	parsed, err := frontend.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(parsed.Nest, parsed.Tiling)
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, parsed.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, Options{
		Name:        "adidsl",
		Width:       parsed.Width,
		KernelStmt:  replacePlaceholders(parsed.KernelC, ts.Nest.Q()),
		InitialStmt: "out[0] = 1.0; out[1] = 2.0;",
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cPath := filepath.Join(dir, "adidsl.c")
	if err := os.WriteFile(cPath, []byte(g.Generate()), 0o644); err != nil {
		t.Fatal(err)
	}
	mockDir, err := filepath.Abs("testdata/mockmpi")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "adidsl")
	if out, err := exec.Command(cc, "-O1", "-std=gnu99", "-I", mockDir,
		"-o", bin, cPath, filepath.Join(mockDir, "mpi.c")).CombinedOutput(); err != nil {
		t.Fatalf("compile failed: %v\n%s", err, out)
	}
	run := exec.Command(bin)
	run.Env = append(os.Environ(), fmt.Sprintf("MOCK_MPI_SIZE=%d", d.NumProcs()))
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("mock-MPI run failed: %v\n%s", err, out)
	}
	var cSum float64
	found := false
	fields := strings.Fields(string(out))
	for i, f := range fields {
		if f == "checksum" && i+1 < len(fields) {
			cSum, err = strconv.ParseFloat(strings.TrimSuffix(fields[i+1], ","), 64)
			if err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no checksum in %q", out)
	}

	initial := func(j ilin.Vec, o []float64) { o[0], o[1] = 1, 2 }
	prog, err := goexec.NewProgram(ts, parsed.MapDim, parsed.Width, parsed.Kernel, initial)
	if err != nil {
		t.Fatal(err)
	}
	gres, _, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	var goSum float64
	prog.ScanSpace(func(j ilin.Vec) bool {
		v := gres.At(j)
		goSum += v[0] + v[1]
		return true
	})
	rel := math.Abs(cSum-goSum) / math.Max(1, math.Abs(goSum))
	if rel > 1e-9 {
		t.Errorf("DSL pipeline: C %.17g vs Go %.17g (rel %.2e)", cSum, goSum, rel)
	}
}
