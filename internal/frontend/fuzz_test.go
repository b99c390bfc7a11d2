package frontend

import "testing"

// FuzzParse checks the parser's contract with the service: whatever bytes a
// request carries, Parse returns a Program or an error — never a panic. The
// parser is reached only inside the plan cache's single-flight compile, where
// a panic would fail every request waiting on that flight. Seeds are the DSL
// sources of this package's tests, README.md and the serve tests.
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
	})
}
