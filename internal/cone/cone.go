// Package cone computes the tiling cone of a dependence matrix and checks
// tiling transformations against it.
//
// For a dependence matrix D, the tiling cone is {h ∈ Qⁿ : h·d ≥ 0 for all
// columns d of D}: the set of hyperplane normals that "respect" every
// dependence. A tiling transformation H is legal iff every row of H lies in
// the cone (equivalently H·D ≥ 0, so all tile dependencies are
// non-negative). Ramanujam–Sadayappan, Xue and Boulet et al. showed the
// communication-minimal tiling comes from the cone; Hodzic–Shang [10]
// showed the scheduling-optimal tile shape does too — a transformation with
// a row strictly inside the cone is provably suboptimal, which is exactly
// the effect the paper's experiments measure.
package cone

import (
	"fmt"
	"sort"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Cone is the tiling cone of a dependence matrix.
type Cone struct {
	N    int
	Deps *ilin.Mat // n×q, columns are dependence vectors
}

// New builds the tiling cone for an n×q dependence matrix.
func New(deps *ilin.Mat) *Cone {
	return &Cone{N: deps.Rows, Deps: deps.Clone()}
}

// Contains reports whether h·d ≥ 0 for every dependence d.
func (c *Cone) Contains(h ilin.RatVec) bool {
	for l := 0; l < c.Deps.Cols; l++ {
		if h.Dot(c.Deps.Col(l).Rat()).Sign() < 0 {
			return false
		}
	}
	return true
}

// InInterior reports whether h·d > 0 for every dependence d. Hodzic–Shang:
// a tiling with a row in the interior of the cone is not time-optimal.
func (c *Cone) InInterior(h ilin.RatVec) bool {
	if c.Deps.Cols == 0 {
		return false
	}
	for l := 0; l < c.Deps.Cols; l++ {
		if h.Dot(c.Deps.Col(l).Rat()).Sign() <= 0 {
			return false
		}
	}
	return true
}

// LegalTiling reports whether every row of the tiling matrix H lies in the
// cone, i.e. H·D ≥ 0 elementwise, the classical tiling legality condition.
func (c *Cone) LegalTiling(h *ilin.RatMat) bool {
	if h.Rows != c.N {
		return false
	}
	for i := 0; i < h.Rows; i++ {
		if !c.Contains(h.Row(i)) {
			return false
		}
	}
	return true
}

// InteriorRows returns the (0-based) indices of rows of H that lie strictly
// inside the cone — the rows Hodzic–Shang identify as suboptimal choices.
func (c *Cone) InteriorRows(h *ilin.RatMat) []int {
	var rows []int
	for i := 0; i < h.Rows; i++ {
		if c.InInterior(h.Row(i)) {
			rows = append(rows, i)
		}
	}
	return rows
}

// ExtremeRays enumerates the extreme rays of the cone as primitive integer
// vectors, sorted lexicographically. It uses the classical facet-
// intersection method: an extreme ray of a pointed n-dimensional cone
// {x : Dᵀx ≥ 0} spans the null space of some (n−1)-subset of active
// constraints. An error is returned when the cone is not pointed (fewer
// than n−1 independent dependencies — every direction pairs with a line,
// and tile shapes cannot be derived automatically).
func (c *Cone) ExtremeRays() ([]ilin.Vec, error) {
	n := c.N
	q := c.Deps.Cols
	if n == 1 {
		// One-dimensional cone: either the half line +1, -1, or all of Q.
		h := ilin.RatVec{rat.One}
		switch {
		case c.Contains(h) && !c.Contains(h.Scale(rat.FromInt(-1))):
			return []ilin.Vec{ilin.NewVec(1)}, nil
		case !c.Contains(h) && c.Contains(h.Scale(rat.FromInt(-1))):
			return []ilin.Vec{ilin.NewVec(-1)}, nil
		default:
			return nil, fmt.Errorf("cone: 1-dimensional cone is not pointed")
		}
	}
	if q < n-1 {
		return nil, fmt.Errorf("cone: %d dependencies cannot pin down extreme rays in %d dimensions (cone not pointed)", q, n)
	}
	// Constraint rows are the dependence vectors (as rows of Dᵀ).
	dt := c.Deps.Transpose()

	seen := map[string]bool{}
	var rays []ilin.Vec
	subset := make([]int, n-1)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n-1 {
			sub := ilin.NewRatMat(n-1, n)
			for r, idx := range subset {
				for col := 0; col < n; col++ {
					sub.Set(r, col, rat.FromInt(dt.At(idx, col)))
				}
			}
			null := sub.NullSpace()
			if len(null) != 1 {
				return // constraints not independent: no unique ray here
			}
			ray := ilin.Primitive(null[0])
			for _, cand := range []ilin.Vec{ray, ray.Scale(-1)} {
				if cand.IsZero() {
					continue
				}
				if !c.Contains(cand.Rat()) {
					continue
				}
				if !c.isExtreme(cand) {
					continue
				}
				key := cand.String()
				if !seen[key] {
					seen[key] = true
					rays = append(rays, cand)
				}
			}
			return
		}
		for i := start; i <= q-(n-1-k); i++ {
			subset[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	if len(rays) == 0 {
		return nil, fmt.Errorf("cone: no extreme rays found (cone may not be pointed)")
	}
	// Pointedness sanity check: if both r and -r are rays the cone holds a
	// line and the "rays" are meaningless as tile normals.
	for _, r := range rays {
		if c.Contains(r.Scale(-1).Rat()) {
			return nil, fmt.Errorf("cone: contains the line spanned by %v; not pointed", r)
		}
	}
	sort.Slice(rays, func(i, j int) bool { return rays[i].LexLess(rays[j]) })
	return rays, nil
}

// isExtreme checks that the active constraint set of the candidate ray has
// rank n−1 (the ray is a true edge of the cone, not a point inside a face).
func (c *Cone) isExtreme(ray ilin.Vec) bool {
	var active [][]int64
	for l := 0; l < c.Deps.Cols; l++ {
		if ray.Dot(c.Deps.Col(l)) == 0 {
			row := make([]int64, c.N)
			copy(row, c.Deps.Col(l))
			active = append(active, row)
		}
	}
	if len(active) < c.N-1 {
		return false
	}
	m := ilin.MatFromRows(active...)
	return m.Rat().Rank() == c.N-1
}

// SuggestTiling returns an n×n rational tiling matrix whose rows are cone
// extreme rays (when at least n independent rays exist), each scaled by
// 1/scale_k so that |det P| matches the requested per-dimension tile
// extents — the automated version of the paper's hand-picked H_nr. The
// row selection greedily keeps rays that increase rank.
func (c *Cone) SuggestTiling(scale []int64) (*ilin.RatMat, error) {
	if len(scale) != c.N {
		return nil, fmt.Errorf("cone: need %d scales, got %d", c.N, len(scale))
	}
	rays, err := c.ExtremeRays()
	if err != nil {
		return nil, err
	}
	chosen := ilin.NewRatMat(0, 0)
	var rows []ilin.Vec
	for _, r := range rays {
		cand := append(append([]ilin.Vec{}, rows...), r)
		m := ilin.NewRatMat(len(cand), c.N)
		for i, v := range cand {
			for j, x := range v {
				m.Set(i, j, rat.FromInt(x))
			}
		}
		if m.Rank() == len(cand) {
			rows = cand
			chosen = m
		}
		if len(rows) == c.N {
			break
		}
	}
	if len(rows) < c.N {
		return nil, fmt.Errorf("cone: only %d independent extreme rays, need %d", len(rows), c.N)
	}
	h := ilin.NewRatMat(c.N, c.N)
	for i := 0; i < c.N; i++ {
		if scale[i] <= 0 {
			return nil, fmt.Errorf("cone: scale %d must be positive", i)
		}
		for j := 0; j < c.N; j++ {
			h.Set(i, j, chosen.At(i, j).Mul(rat.New(1, scale[i])))
		}
	}
	return h, nil
}
