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

// runMockMPI compiles the program generated for d against the fork-based
// mock MPI in testdata/mockmpi — without floating-point contraction, so
// every operation rounds as the Go executor rounds it — runs it with one OS
// process per rank and returns the checksum it prints (%.17g: exact).
func runMockMPI(t *testing.T, d *distrib.Distribution, opts Options) float64 {
	t.Helper()
	cc := requireCC(t)
	g, err := New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cPath := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(cPath, []byte(g.Generate()), 0o644); err != nil {
		t.Fatal(err)
	}
	mockDir, err := filepath.Abs("testdata/mockmpi")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	if out, err := exec.Command(cc, "-O1", "-ffp-contract=off", "-std=gnu99", "-I", mockDir,
		"-o", bin, cPath, filepath.Join(mockDir, "mpi.c")).CombinedOutput(); err != nil {
		t.Fatalf("compile failed: %v\n%s", err, out)
	}
	run := exec.Command(bin)
	run.Env = append(os.Environ(), fmt.Sprintf("MOCK_MPI_SIZE=%d", d.NumProcs()))
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("mock-MPI run failed: %v\n%s", err, out)
	}
	// Output: "<name>: N procs, checksum X, T s"
	fields := strings.Fields(string(out))
	for i, f := range fields {
		if f == "checksum" && i+1 < len(fields) {
			sum, err := strconv.ParseFloat(strings.TrimSuffix(fields[i+1], ","), 64)
			if err != nil {
				t.Fatalf("parse checksum from %q: %v", out, err)
			}
			return sum
		}
	}
	t.Fatalf("no checksum in output %q", out)
	return 0
}

// goChecksum runs prog on the Go executor and sums its values in the order
// the generated program does: a rank sums its chain's tiles in chain order,
// each tile's points in TTIS scan order and each point's slots in order; the
// ranks' sums then add up in rank order, as mockmpi's MPI_Reduce adds them.
func goChecksum(t *testing.T, prog *goexec.Program) float64 {
	t.Helper()
	g, _, err := prog.RunParallelOpts(goexec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := prog.Dist
	var total float64
	for r := range d.Pids {
		local := 0.0
		for s := int64(0); s < d.ChainLen[r]; s++ {
			tile := d.TileAt(r, s)
			tilePoints(prog.TS, tile, func(z, _ ilin.Vec) bool {
				for _, v := range g.At(prog.TS.T.P.MulVec(tile).Add(prog.TS.T.U.MulVec(z))) {
					local += v
				}
				return true
			})
		}
		if r == 0 {
			total = local
		} else {
			total += local
		}
	}
	return total
}

// sameBits compares the C program's checksum with the Go executor's exactly.
func sameBits(t *testing.T, c, g float64) {
	t.Helper()
	if math.Float64bits(c) != math.Float64bits(g) {
		t.Errorf("C checksum %.17g (%#x) differs from Go %.17g (%#x)", c, math.Float64bits(c), g, math.Float64bits(g))
	}
}

// TestParallelCRunsUnderMockMPI is the deepest codegen test: for every
// shipped app and tiling family it generates the MPI program with the app's
// own kernel and boundary C (what tilec -app emits), executes it under the
// mock MPI with one OS process per rank, and requires the checksum the Go
// executor's run of the same app gives, bit for bit — the full §3.2
// protocol and the one kernel validated in two languages over two runtimes.
func TestParallelCRunsUnderMockMPI(t *testing.T) {
	requireCC(t)
	for _, c := range []struct {
		app     func() (*apps.App, error)
		x, y, z int64
	}{
		{func() (*apps.App, error) { return apps.SOR(8, 16) }, 3, 7, 5},
		{func() (*apps.App, error) { return apps.Jacobi(6, 10) }, 2, 4, 4},
		{func() (*apps.App, error) { return apps.ADI(8, 12) }, 2, 4, 4},
		{func() (*apps.App, error) { return apps.Heat3D(3, 4) }, 2, 4, 4},
	} {
		app, err := c.app()
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range append([]apps.TilingFamily{app.Rect}, app.NonRect...) {
			t.Run(app.Name+"/"+fam.Name, func(t *testing.T) {
				ts, err := tiling.Analyze(app.Nest, fam.H(c.x, c.y, c.z))
				if err != nil {
					t.Fatal(err)
				}
				prog, err := goexec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
				if err != nil {
					t.Fatal(err)
				}
				kernelC, err := app.Kernel.C()
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, runMockMPI(t, prog.Dist, Options{
					Name: app.Name, Width: app.Width, KernelStmt: kernelC, InitialStmt: app.InitialC,
				}), goChecksum(t, prog))
			})
		}
	}
}

// runDSL compiles a DSL source to MPI C and to the Go executor, runs both,
// and requires one checksum; initialC is initial in C.
func runDSL(t *testing.T, name, src string, initial goexec.Initial, initialC string) {
	t.Helper()
	p, prog := compileDSL(t, src, initial)
	sameBits(t, runMockMPI(t, prog.Dist, Options{
		Name: name, Width: p.Width, KernelStmt: p.KernelC, InitialStmt: initialC,
	}), goChecksum(t, prog))
}

// TestDSLToMockMPIPipeline is the complete compiler pipeline in one test:
// parse a two-array ADI program from the paper's loop notation, compile it
// to MPI C, execute the C under the fork-based mock MPI, and compare the
// checksum against the Go runtime executing the *same parsed program*.
func TestDSLToMockMPIPipeline(t *testing.T) {
	requireCC(t)
	src, err := os.ReadFile(filepath.Join(seedDir, "adi.nest"))
	if err != nil {
		t.Fatal(err)
	}
	runDSL(t, "adidsl", string(src), func(j ilin.Vec, o []float64) { o[0], o[1] = 1, 2 }, "out[0] = 1.0; out[1] = 2.0;")
}

// TestDSLSeedsRunUnderMockMPI runs every accepted FuzzParse seed as C under
// the mock MPI and on the Go executor, with boundary values of one (zeros
// would divide ADI's B by zero), and requires one checksum.
func TestDSLSeedsRunUnderMockMPI(t *testing.T) {
	requireCC(t)
	seeds, err := filepath.Glob(filepath.Join(seedDir, "*.nest"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no seeds in %s (%v)", seedDir, err)
	}
	for _, path := range seeds {
		name := strings.TrimSuffix(filepath.Base(path), ".nest")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ones := func(j ilin.Vec, o []float64) {
				for s := range o {
					o[s] = 1
				}
			}
			runDSL(t, name, string(src), ones, "for (int w = 0; w < WIDTH; w++) out[w] = 1.0;")
		})
	}
}

// tilePoints walks tile jS of ts point by point in scan order — the rows of
// ScanTileRows expanded, z and jp reused buffers — until fn returns false.
func tilePoints(ts *tiling.TiledSpace, jS ilin.Vec, fn func(z, jp ilin.Vec) bool) {
	last := ts.T.N - 1
	ts.ScanTileRows(jS, func(z, jp ilin.Vec, n int64) bool {
		for ; n > 0; n-- {
			if !fn(z, jp) {
				return false
			}
			z[last]++
			jp[last] += ts.T.C[last]
		}
		return true
	})
}
