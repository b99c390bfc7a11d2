// Package exec executes tiled programs: sequentially over the original
// iteration space (the reference), and in parallel as the paper's generated
// data-parallel program — per-processor Local Data Spaces, the §3.2
// receive→compute→send protocol over the mpi runtime, and a final
// write-back to the global data space via loc⁻¹.
package exec

import (
	"fmt"
	"math"

	"tilespace/internal/ilin"
)

// Global is the dense global data space: one Width-wide value vector per
// iteration point, over the integer bounding box of the iteration space.
// (The paper's DS under the identity write reference f_w(j) = j, the case
// of all three experiment kernels; value width > 1 models multi-array
// statements such as ADI's X and B.)
type Global struct {
	Lo, Hi ilin.Vec
	Width  int
	stride []int64
	data   []float64
}

// NewGlobal allocates a global array over the box [lo, hi], filled with
// NaN so that reads of never-written cells are detectable in tests.
func NewGlobal(lo, hi ilin.Vec, width int) *Global {
	if len(lo) != len(hi) || width <= 0 {
		panic("exec: bad Global shape")
	}
	n := len(lo)
	stride := make([]int64, n)
	size := int64(1)
	for k := n - 1; k >= 0; k-- {
		if hi[k] < lo[k] {
			panic(fmt.Sprintf("exec: empty Global box dim %d", k))
		}
		stride[k] = size
		size *= hi[k] - lo[k] + 1
	}
	g := &Global{Lo: lo.Clone(), Hi: hi.Clone(), Width: width, stride: stride, data: make([]float64, size*int64(width))}
	// Fill by doubling copies: this runs serially on every run's critical
	// path, and memmove is several times faster than a scalar store loop.
	g.data[0] = math.NaN()
	for n := 1; n < len(g.data); n *= 2 {
		copy(g.data[n:], g.data[:n])
	}
	return g
}

func (g *Global) index(j ilin.Vec) int64 {
	var idx int64
	for k := range j {
		if j[k] < g.Lo[k] || j[k] > g.Hi[k] {
			panic(fmt.Sprintf("exec: point %v outside global box [%v, %v]", j, g.Lo, g.Hi))
		}
		idx += (j[k] - g.Lo[k]) * g.stride[k]
	}
	return idx * int64(g.Width)
}

// At returns the value vector stored at j (aliasing the backing array).
func (g *Global) At(j ilin.Vec) []float64 {
	i := g.index(j)
	return g.data[i : i+int64(g.Width)]
}

// Set stores a value vector at j.
func (g *Global) Set(j ilin.Vec, v []float64) {
	copy(g.At(j), v)
}

// Row returns the value vectors of the n points j, j+e, …, j+(n−1)·e along
// the innermost dimension e = e_{n−1}: contiguous in the backing array, which
// the slice aliases.
func (g *Global) Row(j ilin.Vec, n int64) []float64 {
	i := g.index(j)
	if last := len(j) - 1; n < 1 || j[last]+n-1 > g.Hi[last] {
		panic(fmt.Sprintf("exec: row of %d points from %v leaves global box [%v, %v]", n, j, g.Lo, g.Hi))
	}
	return g.data[i : i+n*int64(g.Width)]
}

// setRow stores the value vectors src of n points evenly spaced on the
// segment from first to last (both checked against the box, so every point
// between is inside it too): one copy when the points are adjacent in the
// backing array, a strided loop otherwise.
func (g *Global) setRow(first, last ilin.Vec, n int, src []float64) {
	w := g.Width
	at := g.index(first)
	if n == 1 {
		copy(g.data[at:at+int64(w)], src)
		return
	}
	step := (g.index(last) - at) / int64(n-1)
	if step == int64(w) {
		copy(g.data[at:at+int64(n*w)], src)
		return
	}
	for i := 0; i < n; i++ {
		copy(g.data[at:at+int64(w)], src[i*w:(i+1)*w])
		at += step
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference between
// two globals over the points where fn returns true (typically the
// iteration space), along with the first point achieving it. NaN in either
// operand yields +Inf. Globals over the same box — every caller's — are
// indexed once per point.
func (g *Global) MaxAbsDiff(o *Global, points func(fn func(j ilin.Vec) bool)) (float64, ilin.Vec) {
	if g.Width != o.Width {
		panic("exec: width mismatch in MaxAbsDiff")
	}
	same := g.Lo.Equal(o.Lo) && g.Hi.Equal(o.Hi)
	worst := 0.0
	var at ilin.Vec
	points(func(j ilin.Vec) bool {
		var a, b []float64
		if same {
			i := g.index(j)
			a, b = g.data[i:i+int64(g.Width)], o.data[i:i+int64(g.Width)]
		} else {
			a, b = g.At(j), o.At(j)
		}
		for w := range a {
			d := math.Abs(a[w] - b[w])
			if math.IsNaN(a[w]) || math.IsNaN(b[w]) {
				d = math.Inf(1)
			}
			if d > worst {
				worst = d
				at = j.Clone()
			}
		}
		return true
	})
	return worst, at
}
