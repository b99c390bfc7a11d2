// Package opt searches for good tiling transformations automatically —
// the tool the paper's conclusions call for: it enumerates the rectangular
// family and cone-derived non-rectangular families (rows on the tiling
// cone's extreme rays, per Hodzic–Shang) over a grid of tile-size factors,
// scores every legal candidate with the fast analytic schedule model, and
// returns them ranked. The winning shapes can then be confirmed with the
// discrete-event simulator or real execution.
package opt

import (
	"fmt"
	"sort"

	"tilespace/internal/compile"
	"tilespace/internal/cone"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/schedule"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

// Options bound the search.
type Options struct {
	// Params is the cluster cost model used for scoring.
	Params simnet.Params
	// MapDim fixes the mapping dimension; negative selects per candidate
	// (longest tile dimension).
	MapDim int
	// Factors is the per-dimension candidate factor list; the default is
	// {2, 4, 8, 16}.
	Factors []int64
	// MaxTileSize skips candidates whose tile exceeds this volume
	// (0 = unlimited).
	MaxTileSize int64
	// MaxCandidates caps the number of evaluated candidates as a safety
	// valve (0 = 4096).
	MaxCandidates int
}

// Candidate is one evaluated tiling.
type Candidate struct {
	Family   string // "rect" or "cone"
	H        *ilin.RatMat
	Factors  []int64
	TileSize int64
	Procs    int
	// MapDim is the mapping dimension the candidate was scored with
	// (resolved when Options.MapDim is negative); pass it to Compile.
	MapDim   int
	Estimate *schedule.Estimate
}

// Result is a ranked search outcome.
type Result struct {
	Best       *Candidate
	Candidates []Candidate // sorted by descending predicted speedup
	Skipped    int         // structurally invalid combinations
}

// Search evaluates all candidates and ranks them by predicted speedup.
func Search(nest *loopnest.Nest, o Options) (*Result, error) {
	if err := o.Params.Validate(); err != nil {
		return nil, err
	}
	if len(o.Factors) == 0 {
		o.Factors = []int64{2, 4, 8, 16}
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 4096
	}
	n := nest.N

	type family struct {
		name  string
		build func(scale []int64) (*ilin.RatMat, error)
	}
	families := []family{{
		name: "rect",
		build: func(scale []int64) (*ilin.RatMat, error) {
			t, err := tiling.Rectangular(scale...)
			if err != nil {
				return nil, err
			}
			return t.H, nil
		},
	}}
	c := cone.New(nest.Deps)
	if _, err := c.ExtremeRays(); err == nil {
		families = append(families, family{
			name:  "cone",
			build: func(scale []int64) (*ilin.RatMat, error) { return c.SuggestTiling(scale) },
		})
	}

	res := &Result{}
	evaluated := 0
	scale := make([]int64, n)
	var sweep func(k int) error
	sweep = func(k int) error {
		if evaluated >= o.MaxCandidates {
			return nil
		}
		if k == n {
			for _, f := range families {
				if evaluated >= o.MaxCandidates {
					return nil
				}
				evaluated++
				cand, ok, err := evaluate(nest, f.name, f.build, scale, o)
				if err != nil {
					return err
				}
				if !ok {
					res.Skipped++
					continue
				}
				res.Candidates = append(res.Candidates, *cand)
			}
			return nil
		}
		for _, v := range o.Factors {
			scale[k] = v
			if err := sweep(k + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sweep(0); err != nil {
		return nil, err
	}
	if len(res.Candidates) == 0 {
		return nil, fmt.Errorf("opt: no legal candidate tiling found")
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return res.Candidates[i].Estimate.Speedup > res.Candidates[j].Estimate.Speedup
	})
	res.Best = &res.Candidates[0]
	return res, nil
}

// evaluate builds, validates and scores one candidate; ok=false marks a
// structurally invalid combination (not an error).
func evaluate(nest *loopnest.Nest, name string, build func([]int64) (*ilin.RatMat, error), scale []int64, o Options) (*Candidate, bool, error) {
	h, err := build(scale)
	if err != nil {
		return nil, false, nil
	}
	d, err := compile.Distribute(nest, h, o.MapDim)
	if err != nil || o.MaxTileSize > 0 && d.TS.T.TileSize > o.MaxTileSize {
		return nil, false, nil
	}
	cm := schedule.CostModel{Params: o.Params}
	est, err := cm.Predict(d)
	if err != nil {
		return nil, false, nil
	}
	return &Candidate{
		Family:   name,
		H:        h,
		Factors:  append([]int64(nil), scale...),
		TileSize: d.TS.T.TileSize,
		Procs:    d.NumProcs(),
		MapDim:   d.M,
		Estimate: est,
	}, true, nil
}
