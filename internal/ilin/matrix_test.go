package ilin

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tilespace/internal/rat"
)

func TestVecOps(t *testing.T) {
	v := NewVec(1, 2, 3)
	w := NewVec(4, 5, 6)
	if got := v.Add(w); !got.Equal(NewVec(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(NewVec(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(-2); !got.Equal(NewVec(-2, -4, -6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %d", got)
	}
	if !NewVec(0, 0).IsZero() || NewVec(0, 1).IsZero() {
		t.Error("IsZero mismatch")
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestVecLex(t *testing.T) {
	if !NewVec(0, 1, -5).LexPositive() {
		t.Error("(0,1,-5) should be lex positive")
	}
	if NewVec(0, -1, 5).LexPositive() {
		t.Error("(0,-1,5) should not be lex positive")
	}
	if NewVec(0, 0, 0).LexPositive() {
		t.Error("zero vector should not be lex positive")
	}
	if !NewVec(1, 2).LexLess(NewVec(1, 3)) {
		t.Error("(1,2) < (1,3) expected")
	}
	if NewVec(1, 3).LexLess(NewVec(1, 3)) {
		t.Error("equal vectors not LexLess")
	}
	if !NewVec(0, 9).LexLess(NewVec(1, 0)) {
		t.Error("(0,9) < (1,0) expected")
	}
}

func TestMatMul(t *testing.T) {
	a := MatFromRows([]int64{1, 2}, []int64{3, 4})
	b := MatFromRows([]int64{5, 6}, []int64{7, 8})
	want := MatFromRows([]int64{19, 22}, []int64{43, 50})
	if got := a.Mul(b); !reflect.DeepEqual(got, want) {
		t.Errorf("Mul = \n%v", got)
	}
	if got := a.MulVec(NewVec(1, 1)); !got.Equal(NewVec(3, 7)) {
		t.Errorf("MulVec = %v", got)
	}
	if got := Identity(2).Mul(a); !reflect.DeepEqual(got, a) {
		t.Error("I·a != a")
	}
}

func TestMatTransposeRowCol(t *testing.T) {
	a := MatFromRows([]int64{1, 2, 3}, []int64{4, 5, 6})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Errorf("Transpose = \n%v", at)
	}
	if !a.Row(1).Equal(NewVec(4, 5, 6)) {
		t.Error("Row mismatch")
	}
	if !a.Col(2).Equal(NewVec(3, 6)) {
		t.Error("Col mismatch")
	}
	b := a.Clone()
	b.SetCol(0, NewVec(9, 9))
	if a.At(0, 0) != 1 || b.At(0, 0) != 9 || b.At(1, 0) != 9 {
		t.Error("SetCol/Clone mismatch")
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Mat
		want int64
	}{
		{Identity(3), 1},
		{MatFromRows([]int64{2, 0}, []int64{0, 3}), 6},
		{MatFromRows([]int64{1, 2}, []int64{2, 4}), 0},
		{MatFromRows([]int64{0, 1}, []int64{1, 0}), -1},
		{MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{2, 0, 1}), 1}, // SOR skew T
		{MatFromRows([]int64{2, -1, 0}, []int64{0, 1, 0}, []int64{0, 0, 1}), 2},
	}
	for _, c := range cases {
		if got := c.m.Det(); got != c.want {
			t.Errorf("Det(\n%v\n) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestIsUnimodular(t *testing.T) {
	if !MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{2, 0, 1}).IsUnimodular() {
		t.Error("SOR skew should be unimodular")
	}
	if MatFromRows([]int64{2, 0}, []int64{0, 1}).IsUnimodular() {
		t.Error("det 2 is not unimodular")
	}
	if MatFromRows([]int64{1, 2, 3}).IsUnimodular() {
		t.Error("non-square is not unimodular")
	}
}

func TestInverse(t *testing.T) {
	a := MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{2, 0, 1})
	inv := a.Inverse()
	prod := ratMul(a.Rat(), inv)
	if !reflect.DeepEqual(prod, RatIdentity(3)) {
		t.Errorf("a·a⁻¹ = \n%v", prod)
	}
}

func TestInverseSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inverse of singular matrix did not panic")
		}
	}()
	MatFromRows([]int64{1, 2}, []int64{2, 4}).Inverse()
}

func TestRatMatFromRows(t *testing.T) {
	h := ratMat(t, []string{"1/2", "0"}, []string{"-1/3", "1/3"})
	if !h.At(0, 0).Equal(rat.New(1, 2)) || !h.At(1, 0).Equal(rat.New(-1, 3)) {
		t.Errorf("ParseRatMat = \n%v", h)
	}
	inv := h.Inverse()
	want := ratMat(t, []string{"2", "0"}, []string{"2", "3"})
	if !reflect.DeepEqual(inv, want) {
		t.Errorf("Inverse = \n%v, want \n%v", inv, want)
	}
	if !inv.IsInt() {
		t.Error("inverse should be integral")
	}
	if inv.Int().At(1, 0) != 2 {
		t.Error("Int conversion mismatch")
	}
}

func TestRatMatDetScale(t *testing.T) {
	h := ratMat(t,
		[]string{"1/2", "0", "0"},
		[]string{"0", "1/3", "0"},
		[]string{"-1/4", "0", "1/4"},
	)
	if !h.Det().Equal(rat.New(1, 24)) {
		t.Errorf("Det = %v", h.Det())
	}
}

func TestRatVecOps(t *testing.T) {
	v := RatVec{rat.New(1, 2), rat.New(1, 3)}
	w := RatVec{rat.New(1, 2), rat.New(2, 3)}
	if !v.Add(w).Dot(RatVec{rat.One, rat.One}).Equal(rat.FromInt(2)) {
		t.Error("RatVec Add/Dot mismatch")
	}
	if !v.Sub(v).IsZero() {
		t.Error("v-v should be zero")
	}
	if got := v.Scale(rat.FromInt(6)); !got[0].Equal(rat.FromInt(3)) || !got[1].Equal(rat.FromInt(2)) {
		t.Errorf("Scale = %v", got)
	}
}

// randMat builds a small matrix from quick-check bytes, entries in [-5, 5].
func randMat(n int, seed []byte) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			var b byte
			if idx < len(seed) {
				b = seed[idx]
			}
			m.Set(i, j, int64(int(b%11))-5)
		}
	}
	return m
}

func TestQuickDetMultiplicative(t *testing.T) {
	f := func(s1, s2 [9]byte) bool {
		a := randMat(3, s1[:])
		b := randMat(3, s2[:])
		return a.Mul(b).Det() == a.Det()*b.Det()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(s [9]byte) bool {
		a := randMat(3, s[:])
		if a.Det() == 0 {
			return true
		}
		return reflect.DeepEqual(ratMul(a.Rat(), a.Inverse()), RatIdentity(3)) &&
			reflect.DeepEqual(ratMul(a.Inverse(), a.Rat()), RatIdentity(3))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickTransposeDet(t *testing.T) {
	f := func(s [9]byte) bool {
		a := randMat(3, s[:])
		return a.Transpose().Det() == a.Det()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringRenderings(t *testing.T) {
	if NewVec(1, -2).String() != "(1, -2)" {
		t.Errorf("Vec String = %s", NewVec(1, -2).String())
	}
	if s := (RatVec{rat.New(1, 2)}).String(); s != "(1/2)" {
		t.Errorf("RatVec String = %s", s)
	}
	if s := MatFromRows([]int64{1, 2}, []int64{3, 4}).String(); !strings.Contains(s, "[1 2]") {
		t.Errorf("Mat String = %s", s)
	}
	if s := RatIdentity(2).String(); !strings.Contains(s, "[1 0]") {
		t.Errorf("RatMat String = %s", s)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewVec(1).Equal(NewVec(1, 2)) {
		t.Error("different-length vectors equal")
	}
}

func TestRatVecCloneIsIntTransposeRowCol(t *testing.T) {
	v := RatVec{rat.One, rat.New(1, 2)}
	c := v.Clone()
	c[0] = rat.Zero
	if !v[0].Equal(rat.One) {
		t.Error("RatVec Clone aliases")
	}
	if v.IsZero() {
		t.Error("v is not zero")
	}
	m := ratMat(t, []string{"1", "2"}, []string{"3", "4"})
	if !m.Row(1).Dot(RatVec{rat.One, rat.One}).Equal(rat.FromInt(7)) {
		t.Error("RatMat Row")
	}
	if !m.Col(0).Dot(RatVec{rat.One, rat.One}).Equal(rat.FromInt(4)) {
		t.Error("RatMat Col")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative Mat dims":    func() { NewMat(-1, 2) },
		"negative RatMat dims": func() { NewRatMat(2, -1) },
		"ragged MatFromRows":   func() { MatFromRows([]int64{1, 2}, []int64{3}) },
		"length mismatch dot":  func() { NewVec(1).Dot(NewVec(1, 2)) },
		"det non-square":       func() { NewRatMat(1, 2).Det() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
	if MatFromRows() == nil {
		t.Error("empty MatFromRows should give an empty matrix")
	}
	for name, rows := range map[string][][]string{
		"ragged rows":     {{"1", "2"}, {"3"}},
		"bad rat literal": {{"q"}},
		"no rows":         nil,
	} {
		if _, err := ParseRatMat(rows); err == nil {
			t.Errorf("ParseRatMat accepts %s", name)
		}
	}
}

func TestDetNeedsRowSwap(t *testing.T) {
	// Leading zero forces the pivot swap path.
	m := ratMat(t, []string{"0", "1"}, []string{"1", "0"})
	if !m.Det().Equal(rat.FromInt(-1)) {
		t.Errorf("Det = %v", m.Det())
	}
}

func ratMat(t *testing.T, rows ...[]string) *RatMat {
	t.Helper()
	m, err := ParseRatMat(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ratMul returns a·b entry by entry (row of a · column of b): the product
// the tests check Inverse against.
func ratMul(a, b *RatMat) *RatMat {
	out := NewRatMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			out.Set(i, j, a.Row(i).Dot(b.Col(j)))
		}
	}
	return out
}

// ratMulVec returns m·v, row by row.
func ratMulVec(m *RatMat, v RatVec) RatVec {
	out := make(RatVec, m.Rows)
	for i := range out {
		out[i] = m.Row(i).Dot(v)
	}
	return out
}
