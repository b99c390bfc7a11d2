package compile

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/tiling"
)

const heat = `let M = 6
let N = 12
for t = 1 .. M
for i = 1 .. N
A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3
tile 1/3 0 / 0 1/4
`

func square(t *testing.T) *loopnest.Nest {
	t.Helper()
	n, err := loopnest.Box([]string{"i", "j"}, []int64{0, 0}, []int64{11, 11}, ilin.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func rect(t *testing.T, s ...int64) *ilin.RatMat {
	t.Helper()
	tr, err := tiling.Rectangular(s...)
	if err != nil {
		t.Fatal(err)
	}
	return tr.H
}

// TestDefaults pins the one set of defaults every entry point gets: width 0
// is 1 and a negative width is an error, a negative mapping dimension is the
// longest tile dimension (in Compile and Distribute alike), an out-of-range
// one is distrib's error, and the zero Kernel is a no-op with no C form.
func TestDefaults(t *testing.T) {
	nest := square(t)
	h := rect(t, 3, 6)
	art, err := Compile(Spec{Nest: nest, H: h, MapDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	if art.Width != 1 || art.Prog.Width != 1 {
		t.Errorf("width %d/%d, want 1", art.Width, art.Prog.Width)
	}
	d, err := Distribute(nest, h, -1)
	if err != nil {
		t.Fatal(err)
	}
	if art.Prog.Dist.M != d.M || art.Procs != d.NumProcs() {
		t.Errorf("Compile maps along %d over %d ranks, Distribute along %d over %d", art.Prog.Dist.M, art.Procs, d.M, d.NumProcs())
	}
	if art.Points() != 144 || art.TileSize != 18 || art.Tiles != 8 {
		t.Errorf("points %d, tile size %d, tiles %d", art.Points(), art.TileSize, art.Tiles)
	}
	if _, err := art.C(); err == nil {
		t.Error("a no-op kernel printed as C")
	}
	if _, err := Compile(Spec{Nest: nest, H: h, Width: -1}); err == nil {
		t.Error("negative width accepted")
	}
	for _, m := range []int{2, 7} {
		if _, err := Compile(Spec{Nest: nest, H: h, MapDim: m}); err == nil {
			t.Errorf("mapping dimension %d accepted", m)
		}
		if _, err := Distribute(nest, h, m); err == nil {
			t.Errorf("Distribute accepted mapping dimension %d", m)
		}
	}
	if _, err := Compile(Spec{Nest: nest}); err == nil {
		t.Error("a spec without H compiled")
	}
	art, err = Compile(Spec{Nest: nest, H: h, KernelC: "out[0] = R0[0] + R1[0];", InitialC: "out[0] = 2.0;", Name: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := art.C()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"out[0] = R0[0] + R1[0];", "out[0] = 2.0;", "sq.c"} {
		if !strings.Contains(c, want) {
			t.Errorf("the C lacks %q", want)
		}
	}
}

// TestErrorWrapping pins the one set of error prefixes.
func TestErrorWrapping(t *testing.T) {
	cases := map[string]string{
		"for i = ..":                      "parse: ",
		"for i = 0 .. 4\nA[i] = A[i-1]\n": "spec needs a `tile` directive",
		"for i = 0 .. 4\nA[i] = A[i-1]\ntile 1/2 0 / 0 1/2\n": "analyze: ",
	}
	for src, prefix := range cases {
		if _, err := Compile(Spec{Source: src}); err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("%q: err = %v, want prefix %q", src, err, prefix)
		}
	}
	huge := "let M = 4611686018427387904\nfor i = 1 .. M\nfor j = 1 .. 4\nA[i,j] = A[i-1,j] + A[i,j-1]\ntile 1/2 0 / 0 1/2\n"
	var overflow *tiling.OverflowError
	if _, err := Compile(Spec{Source: huge}); !errors.As(err, &overflow) {
		t.Errorf("overflowing spec: err = %v, want a *tiling.OverflowError", err)
	}
}

// TestSourceIsItsParse: a DSL Spec compiles exactly as the Spec of its
// parse, with the parsed statement as the C kernel.
func TestSourceIsItsParse(t *testing.T) {
	a, err := Compile(Spec{Source: heat})
	if err != nil {
		t.Fatal(err)
	}
	p, err := frontend.Parse(heat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(Spec{Nest: p.Nest, H: p.Tiling, MapDim: p.MapDim, Width: p.Width, Kernel: p.Kernel})
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != heat || b.Source != "" || a.Report() != b.Report() || a.Points() != b.Points() {
		t.Error("the DSL spec and the spec of its parse differ")
	}
	ca, err := a.C()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.C()
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb || !strings.Contains(ca, p.KernelC) {
		t.Error("the DSL spec's C is not its parsed statement's")
	}
}

// TestOncePerArtifact: concurrent holders share one certificate and one C
// text; a run's checksum needs nothing but the program.
func TestOncePerArtifact(t *testing.T) {
	app, err := apps.SOR(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Compile(App(app, app.Rect.H(2, 3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	const holders = 8
	certs := make([]any, holders)
	codes := make([]string, holders)
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := art.Certificate()
			if err != nil {
				t.Error(err)
			}
			certs[i] = rep
			if codes[i], err = art.C(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < holders; i++ {
		if certs[i] != certs[0] || codes[i] != codes[0] {
			t.Fatalf("holder %d got its own certificate or C", i)
		}
	}
	if !strings.Contains(codes[0], app.InitialC) {
		t.Error("the app's boundary values are missing from the C")
	}
	g, _, err := art.Prog.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if (&Artifact{Prog: art.Prog}).Checksum(g) != art.Checksum(g) {
		t.Error("the checksum depends on more than the program")
	}
}
