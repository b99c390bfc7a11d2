package loopnest

import (
	"reflect"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/poly"
)

func simpleDeps() *ilin.Mat {
	// d1 = (1,0), d2 = (0,1)
	return ilin.MatFromRows([]int64{1, 0}, []int64{0, 1})
}

func TestBox(t *testing.T) {
	n := mustBox(t, []string{"i", "j"}, []int64{1, 1}, []int64{4, 5}, simpleDeps())
	size, err := n.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 20 {
		t.Errorf("Size = %d, want 20", size)
	}
	lo, hi, err := n.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	if !lo.Equal(ilin.NewVec(1, 1)) || !hi.Equal(ilin.NewVec(4, 5)) {
		t.Errorf("BoundingBox = %v, %v", lo, hi)
	}
	if n.Q() != 2 || !n.Dep(0).Equal(ilin.NewVec(1, 0)) {
		t.Error("dependence accessors")
	}
}

func TestBoxErrors(t *testing.T) {
	if _, err := Box([]string{"i"}, []int64{1}, []int64{4, 5}, nil); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Box([]string{"i"}, []int64{4}, []int64{1}, nil); err == nil {
		t.Error("empty box not rejected")
	}
}

func TestDefaultNames(t *testing.T) {
	s := poly.NewSystem(2)
	s.AddRange(0, 0, 1)
	s.AddRange(1, 0, 1)
	n, err := New(nil, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Names[0] != "j1" || n.Names[1] != "j2" {
		t.Errorf("Names = %v", n.Names)
	}
	if n.Q() != 0 {
		t.Errorf("Q = %d, want 0", n.Q())
	}
}

func TestRejectsNonLexPositiveDep(t *testing.T) {
	deps := ilin.MatFromRows([]int64{0, -1}, []int64{1, 0}) // d2 = (-1, 0)
	if _, err := Box([]string{"i", "j"}, []int64{0, 0}, []int64{3, 3}, deps); err == nil {
		t.Error("non-lex-positive dependence not rejected")
	}
}

func TestRejectsUnboundedSpace(t *testing.T) {
	s := poly.NewSystem(1)
	// only j ≥ 0
	s.Add(poly.NewConstraint(ilin.NewVec(-1).Rat(), ilin.NewVec(0).Rat()[0]))
	if _, err := New([]string{"j"}, s, nil); err == nil {
		t.Error("unbounded space not rejected")
	}
}

func TestRejectsArityMismatch(t *testing.T) {
	s := poly.NewSystem(2)
	s.AddRange(0, 0, 1)
	s.AddRange(1, 0, 1)
	if _, err := New([]string{"i"}, s, nil); err == nil {
		t.Error("name arity mismatch not rejected")
	}
	deps := ilin.NewMat(3, 1)
	if _, err := New([]string{"i", "j"}, s, deps); err == nil {
		t.Error("dep arity mismatch not rejected")
	}
}

// TestSkewSOR mirrors §4.1: skewing the SOR nest with T = [[1,0,0],[1,1,0],
// [2,0,1]] makes all dependence components non-negative.
func TestSkewSOR(t *testing.T) {
	// Original SOR dependencies (t,i,j) from the loop body:
	// (0,1,0), (0,0,1), (1,-1,0), (1,0,-1), (1,0,0).
	d := ilin.MatFromRows(
		[]int64{0, 0, 1, 1, 1},
		[]int64{1, 0, -1, 0, 0},
		[]int64{0, 1, 0, -1, 0},
	)
	nest := mustBox(t, []string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{3, 4, 4}, d)
	skew := ilin.MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{2, 0, 1})
	sk, err := nest.Skew(skew)
	if err != nil {
		t.Fatal(err)
	}
	// Skewed dependence matrix must match the paper's §4.1 D (columns in
	// our order): T·D.
	want := skew.Mul(d)
	if !reflect.DeepEqual(sk.Deps, want) {
		t.Errorf("skewed D =\n%v, want\n%v", sk.Deps, want)
	}
	for l := 0; l < sk.Q(); l++ {
		for k := 0; k < 3; k++ {
			if sk.Dep(l)[k] < 0 {
				t.Errorf("skewed dependence %v has a negative component", sk.Dep(l))
			}
		}
	}
	// Point counts must be preserved by the unimodular skew.
	n0, _ := nest.Size()
	n1, _ := sk.Size()
	if n0 != n1 {
		t.Errorf("skew changed size: %d -> %d", n0, n1)
	}
}

// TestSkewPreservesMembership: j ∈ J^n ⇔ T·j ∈ skewed space.
func TestSkewPreservesMembership(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{5, 5}, simpleDeps())
	skew := ilin.MatFromRows([]int64{1, 0}, []int64{1, 1})
	sk, err := nest.Skew(skew)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(-1); x <= 6; x++ {
		for y := int64(-1); y <= 6; y++ {
			p := ilin.NewVec(x, y)
			if nest.Space.Contains(p) != sk.Space.Contains(skew.MulVec(p)) {
				t.Fatalf("membership mismatch at %v", p)
			}
		}
	}
}

func TestSkewRejectsNonUnimodular(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{3, 3}, simpleDeps())
	if _, err := nest.Skew(ilin.MatFromRows([]int64{2, 0}, []int64{0, 1})); err == nil {
		t.Error("non-unimodular skew not rejected")
	}
	if _, err := nest.Skew(ilin.NewMat(3, 3)); err == nil {
		t.Error("wrong-shape skew not rejected")
	}
}

func TestString(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{3, 3}, simpleDeps())
	if nest.String() == "" {
		t.Error("empty String")
	}
}

func mustBox(t *testing.T, names []string, lo, hi []int64, deps *ilin.Mat) *Nest {
	t.Helper()
	n, err := Box(names, lo, hi, deps)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
