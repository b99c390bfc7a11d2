package frontend

import (
	"math"
	"math/rand"
	"testing"

	"tilespace/internal/ilin"
)

// FuzzParse checks the parser's contract with the service: whatever bytes a
// request carries, Parse returns a Program or an error — never a panic. The
// parser is reached only inside the plan cache's single-flight compile, where
// a panic would fail every request waiting on that flight. Every accepted
// source is also run both ways — its statement a row at a time and point by
// point — and must agree bit for bit. Seeds are the DSL sources of this
// package's tests, README.md and the serve tests.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		sorSource,
		adiSource,
		"let N = 8\nfor i = 0 .. N\nfor j = i .. N\nA[i,j] = A[i-1,j] + A[i,j-1] + 1\n",
		"let T = 5\nfor t = 1 .. T\nfor i = t+1 .. t+6\nfor j = 2*t+1 .. 2*t+4\nA[t,i,j] = A[t-1,i,j] + 0.5\n",
		"for i = 1 .. 4\nA[i] = -A[i-1] + -2.5\n",
		"\n# header\n\nfor i = 1 .. 4   # inline comment\n\nA[i] = A[i-1] + 1\n#trailer\n",
		"let M = 6\nlet N = 12\nfor t = 1 .. M\nfor i = 1 .. N\nA[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3\ntile 1/3 0 / 0 1/4\n",
		"let M = 100\nlet N = 200\nfor t = 1 .. M\nfor i = 1 .. N\nfor j = 1 .. N\nA[t,i,j] = 0.3*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.2*A[t-1,i,j]\nskew 1 0 0 / 1 1 0 / 2 0 1\ntile 1/51 0 0 / 0 1/38 0 / -1/20 0 1/20\nmap 3\n",
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

// runBothWays evaluates p's kernel over a row of random reads row-wise
// (Kernel.Row, the executor's form) and per point (Kernel.Point, the
// references' form): the values must be the same bits, any NaN equal to any
// other.
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
		p.Kernel.Point(j, pt, out)
		for s, v := range out {
			if got := rows[i*w+s]; math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("point %d slot %d: row-wise %v, per point %v", i, s, got, v)
			}
		}
		j[p.Nest.N-1]++
	}
}
