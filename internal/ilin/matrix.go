// Package ilin provides the exact integer and rational linear algebra the
// tiling framework is built on: matrix products and inverses, determinants,
// and the column-style Hermite Normal Form used to derive loop strides and
// incremental offsets for non-unimodular transformed tile spaces.
//
// Dimensions in this domain are tiny (the loop nest depth, 2–4 in practice),
// so all algorithms favour exactness and clarity over asymptotics.
package ilin

import (
	"fmt"
	"strconv"
	"strings"

	"tilespace/internal/rat"
)

// Vec is an integer column vector.
type Vec []int64

// NewVec copies the given values into a fresh Vec.
func NewVec(vals ...int64) Vec {
	v := make(Vec, len(vals))
	copy(v, vals)
	return v
}

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Equal reports whether v and w have the same length and elements.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c*v.
func (v Vec) Scale(c int64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Dot returns the inner product v·w.
func (v Vec) Dot(w Vec) int64 {
	mustSameLen(len(v), len(w))
	var s int64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// IsZero reports whether every element is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// LexPositive reports whether v is lexicographically positive: its first
// nonzero element is positive. The zero vector is not lex-positive.
func (v Vec) LexPositive() bool {
	for _, x := range v {
		if x != 0 {
			return x > 0
		}
	}
	return false
}

// LexLess reports whether v comes strictly before w in lexicographic order.
func (v Vec) LexLess(w Vec) bool {
	mustSameLen(len(v), len(w))
	for i := range v {
		if v[i] != w[i] {
			return v[i] < w[i]
		}
	}
	return false
}

// Rat converts v to a rational vector.
func (v Vec) Rat() RatVec {
	out := make(RatVec, len(v))
	for i, x := range v {
		out[i] = rat.FromInt(x)
	}
	return out
}

func (v Vec) String() string {
	var buf [64]byte
	b := append(buf[:0], '(')
	for i, x := range v {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return string(append(b, ')'))
}

// RatVec is a rational column vector.
type RatVec []rat.Rat

// Clone returns a copy of v.
func (v RatVec) Clone() RatVec {
	w := make(RatVec, len(v))
	copy(w, v)
	return w
}

// Add returns v + w.
func (v RatVec) Add(w RatVec) RatVec {
	mustSameLen(len(v), len(w))
	out := make(RatVec, len(v))
	for i := range v {
		out[i] = v[i].Add(w[i])
	}
	return out
}

// Sub returns v - w.
func (v RatVec) Sub(w RatVec) RatVec {
	mustSameLen(len(v), len(w))
	out := make(RatVec, len(v))
	for i := range v {
		out[i] = v[i].Sub(w[i])
	}
	return out
}

// Scale returns c*v.
func (v RatVec) Scale(c rat.Rat) RatVec {
	out := make(RatVec, len(v))
	for i := range v {
		out[i] = v[i].Mul(c)
	}
	return out
}

// Dot returns the inner product v·w.
func (v RatVec) Dot(w RatVec) rat.Rat {
	mustSameLen(len(v), len(w))
	s := rat.Zero
	for i := range v {
		s = s.Add(v[i].Mul(w[i]))
	}
	return s
}

// IsZero reports whether every element is zero.
func (v RatVec) IsZero() bool {
	for _, x := range v {
		if !x.IsZero() {
			return false
		}
	}
	return true
}

func (v RatVec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Mat is a dense integer matrix, stored row-major.
type Mat struct {
	Rows, Cols int
	a          []int64
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("ilin: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, a: make([]int64, rows*cols)}
}

// MatFromRows builds a matrix from row slices; all rows must have equal
// length.
func MatFromRows(rows ...[]int64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("ilin: ragged rows")
		}
		copy(m.a[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// IntMat is MatFromRows for input that may be malformed: at least one row,
// all of one length, or an error (the twin of ParseRatMat).
func IntMat(rows [][]int64) (*Mat, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("ilin: empty matrix")
	}
	for _, r := range rows {
		if len(r) != len(rows[0]) {
			return nil, fmt.Errorf("ilin: ragged rows")
		}
	}
	return MatFromRows(rows...), nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) int64 { return m.a[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v int64) { m.a[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.a, m.a)
	return c
}

// Row returns a copy of row i.
func (m *Mat) Row(i int) Vec {
	out := make(Vec, m.Cols)
	copy(out, m.a[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Mat) Col(j int) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// SetCol assigns column j.
func (m *Mat) SetCol(j int, v Vec) {
	mustSameLen(len(v), m.Rows)
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, v[i])
	}
}

// Mul returns m·n.
func (m *Mat) Mul(n *Mat) *Mat {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("ilin: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMat(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			mik := m.At(i, k)
			if mik == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				out.a[i*out.Cols+j] += mik * n.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m·v.
func (m *Mat) MulVec(v Vec) Vec {
	mustSameLen(len(v), m.Cols)
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s int64
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns mᵀ.
func (m *Mat) Transpose() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Rat converts m to a rational matrix.
func (m *Mat) Rat() *RatMat {
	out := NewRatMat(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(i, j, rat.FromInt(m.At(i, j)))
		}
	}
	return out
}

// Det returns the determinant of a square integer matrix (exact, via the
// rational elimination of RatMat; matrices here are ≤ 6×6).
func (m *Mat) Det() int64 {
	d := m.Rat().Det()
	if !d.IsInt() {
		panic("ilin: integer matrix with non-integer determinant")
	}
	return d.Int()
}

// IsUnimodular reports whether m is square with determinant ±1.
func (m *Mat) IsUnimodular() bool {
	if m.Rows != m.Cols {
		return false
	}
	d := m.Det()
	return d == 1 || d == -1
}

// Inverse returns m⁻¹ as a rational matrix; it panics if m is singular or
// not square.
func (m *Mat) Inverse() *RatMat { return m.Rat().Inverse() }

func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprint(&b, m.At(i, j))
		}
		b.WriteString("]")
		if i < m.Rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// RatMat is a dense rational matrix, stored row-major.
type RatMat struct {
	Rows, Cols int
	a          []rat.Rat
}

// NewRatMat returns a zero Rows×Cols rational matrix.
func NewRatMat(rows, cols int) *RatMat {
	if rows < 0 || cols < 0 {
		panic("ilin: negative matrix dimension")
	}
	a := make([]rat.Rat, rows*cols)
	for i := range a {
		a[i] = rat.Zero
	}
	return &RatMat{Rows: rows, Cols: cols, a: a}
}

// ParseRatMat builds a rational matrix from rows of strings parsed by
// rat.Parse ("1/2", "-3", …): at least one row, all of one length.
func ParseRatMat(rows [][]string) (*RatMat, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("ilin: empty matrix")
	}
	m := NewRatMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("ilin: ragged rows")
		}
		for j, s := range r {
			v, err := rat.Parse(s)
			if err != nil {
				return nil, err
			}
			m.Set(i, j, v)
		}
	}
	return m, nil
}

// RatIdentity returns the n×n rational identity.
func RatIdentity(n int) *RatMat {
	m := NewRatMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, rat.One)
	}
	return m
}

// At returns element (i, j).
func (m *RatMat) At(i, j int) rat.Rat { return m.a[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *RatMat) Set(i, j int, v rat.Rat) { m.a[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *RatMat) Clone() *RatMat {
	c := NewRatMat(m.Rows, m.Cols)
	copy(c.a, m.a)
	return c
}

// Row returns a copy of row i.
func (m *RatMat) Row(i int) RatVec {
	out := make(RatVec, m.Cols)
	copy(out, m.a[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *RatMat) Col(j int) RatVec {
	out := make(RatVec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// IsInt reports whether every element of m is an integer.
func (m *RatMat) IsInt() bool {
	for _, x := range m.a {
		if !x.IsInt() {
			return false
		}
	}
	return true
}

// Int converts m to an integer matrix; it panics unless m.IsInt().
func (m *RatMat) Int() *Mat {
	out := NewMat(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(i, j, m.At(i, j).Int())
		}
	}
	return out
}

// Det returns the determinant of a square rational matrix by Gaussian
// elimination with exact arithmetic.
func (m *RatMat) Det() rat.Rat {
	if m.Rows != m.Cols {
		panic("ilin: Det of non-square matrix")
	}
	n := m.Rows
	w := m.Clone()
	det := rat.One
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if !w.At(r, col).IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return rat.Zero
		}
		if pivot != col {
			w.swapRows(pivot, col)
			det = det.Neg()
		}
		p := w.At(col, col)
		det = det.Mul(p)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col).Div(p)
			if f.IsZero() {
				continue
			}
			for c := col; c < n; c++ {
				w.Set(r, c, w.At(r, c).Sub(f.Mul(w.At(col, c))))
			}
		}
	}
	return det
}

// Inverse returns m⁻¹ by Gauss–Jordan elimination with exact arithmetic; it
// panics if m is singular or not square.
func (m *RatMat) Inverse() *RatMat {
	if m.Rows != m.Cols {
		panic("ilin: Inverse of non-square matrix")
	}
	n := m.Rows
	w := m.Clone()
	inv := RatIdentity(n)
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if !w.At(r, col).IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			panic("ilin: Inverse of singular matrix")
		}
		if pivot != col {
			w.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		p := w.At(col, col).Inv()
		for c := 0; c < n; c++ {
			w.Set(col, c, w.At(col, c).Mul(p))
			inv.Set(col, c, inv.At(col, c).Mul(p))
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := w.At(r, col)
			if f.IsZero() {
				continue
			}
			for c := 0; c < n; c++ {
				w.Set(r, c, w.At(r, c).Sub(f.Mul(w.At(col, c))))
				inv.Set(r, c, inv.At(r, c).Sub(f.Mul(inv.At(col, c))))
			}
		}
	}
	return inv
}

func (m *RatMat) swapRows(i, j int) {
	for c := 0; c < m.Cols; c++ {
		m.a[i*m.Cols+c], m.a[j*m.Cols+c] = m.a[j*m.Cols+c], m.a[i*m.Cols+c]
	}
}

func (m *RatMat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(m.At(i, j).String())
		}
		b.WriteString("]")
		if i < m.Rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("ilin: length mismatch %d vs %d", a, b))
	}
}
