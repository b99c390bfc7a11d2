package frontend

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tilespace/internal/ilin"
)

// FuzzParse checks the parser's contract with the service: whatever bytes a
// request carries, Parse returns a Program or an error — never a panic. The
// parser is reached only inside the plan cache's single-flight compile, where
// a panic would fail every request waiting on that flight. Every accepted
// source is also run both ways — its statement a row at a time and point by
// point — and must agree bit for bit. The accepted seeds are the DSL sources
// of this package's tests, README.md and the serve tests, kept in
// testdata/seeds (internal/codegen compiles them to C and runs them too); the
// rejected ones are TestParseErrors' cases.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "seeds", "*.nest"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no accepted seeds in testdata/seeds (%v)", err)
	}
	for _, path := range seeds {
		f.Add(seed(strings.TrimSuffix(filepath.Base(path), ".nest")))
	}
	for _, src := range []string{
		// TestParseErrors' rejects, one per error site.
		"A[i] = 1",
		"for i = 1 .. 4\nA[i] = 1\nA[i] = 2",
		"for i = 1 .. 8\nA[i] = A[i-1/2]",
		"for i = 1 .. 4\nfor j = i*i .. 9\nA[i,j] = 1",
		"for i = 1 .. 4\nfor j = 1 .. 4\nA[i,j] = 1\nskew 1 0 / 1",
		"for i = 1 .. 4\nA[i] = 1\ntile q",
		"for i = 1 .. 4\nA[i] = (A[i-1] + 1",
		"for i = A[0] .. 4\nA[i] = 1",
		"let N = 4\nfor i = 1 .. N\nA[i] = A[i-1] + N",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if (p == nil) == (err == nil) {
			t.Fatalf("Parse returned program %v and error %v", p, err)
		}
		if err == nil {
			runBothWays(t, p, int64(len(src)))
		}
	})
}

// seed reads the accepted seed testdata/seeds/<name>.nest.
func seed(name string) string {
	data, err := os.ReadFile(filepath.Join("testdata", "seeds", name+".nest"))
	if err != nil {
		panic(err)
	}
	return string(data)
}

// runBothWays evaluates p's kernel over a row of random reads row-wise
// (Kernel.Row, the executor's form) and per point (rows of one point): the
// values must be the same bits, any NaN equal to any other.
func runBothWays(t *testing.T, p *Program, seed int64) {
	const n = 9
	rng := rand.New(rand.NewSource(seed))
	w := p.Width
	reads := make([][]float64, p.Nest.Q())
	for l := range reads {
		reads[l] = make([]float64, n*w)
		for i := range reads[l] {
			reads[l][i] = []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), rng.NormFloat64(), rng.NormFloat64() * 1e3}[rng.Intn(6)]
		}
	}
	j, step := make(ilin.Vec, p.Nest.N), make(ilin.Vec, p.Nest.N)
	step[p.Nest.N-1] = 1
	rows := make([]float64, n*w)
	p.Kernel.Row(n, j, step, reads, rows)
	pt := make([][]float64, len(reads))
	out := make([]float64, w)
	for i := 0; i < n; i++ {
		for l := range pt {
			pt[l] = reads[l][i*w : (i+1)*w]
		}
		p.Kernel.Row(1, j, step, pt, out)
		for s, v := range out {
			if got := rows[i*w+s]; math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("point %d slot %d: row-wise %v, per point %v", i, s, got, v)
			}
		}
		j[p.Nest.N-1]++
	}
}
