// Package schedule implements the paper's analytic scheduling model: the
// linear time schedule Π = [1, …, 1] over the tile space (its length
// Π·(⌊H·j_max⌋ − ⌊H·j_min⌋) + 1, which §4 uses to predict the advantage of
// cone-derived tile shapes, t_nr = t_r − M/z for SOR etc., is reproduced by
// this package's tests), the pipelined unit-time makespan, and the
// Hodzic–Shang-style per-step completion-time estimate
//
//	T ≈ steps × (t_tile + t_comm)
//
// that the discrete-event simulator refines. Having the closed-form model
// in code lets tests confirm the paper's §4.1–4.3 algebra against the
// actual tile spaces, and quantifies how close the simple model tracks the
// simulation.
package schedule

import (
	"fmt"
	"sort"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

// Linear is the linear schedule Π over the tile space: tile j^S executes
// at step Π·j^S (shifted so the first step is 0).
type Linear struct {
	Pi ilin.Vec
}

// Uniform returns the paper's Π = [1, 1, …, 1].
func Uniform(n int) Linear {
	pi := make(ilin.Vec, n)
	for i := range pi {
		pi[i] = 1
	}
	return Linear{Pi: pi}
}

// Valid reports whether the schedule respects every tile dependence:
// Π·d^S > 0 for all d^S (strict, so dependent tiles land on later steps).
func (l Linear) Valid(ts *tiling.TiledSpace) bool {
	for _, dS := range ts.DS {
		if l.Pi.Dot(dS) <= 0 {
			return false
		}
	}
	return true
}

// PipelinedLength is the unit-execution-time makespan of the §3.1
// execution model (the UET-UCT abstraction of [3]): every tile costs one
// step, a tile starts after all its D^S predecessors, and each processor
// executes its chain sequentially. This is the step count the paper's
// t_r/t_nr algebra predicts: skewing H moves mesh-serializing tile
// dependencies outside the valid tile space, so downstream processors
// start earlier and the pipeline fill shrinks — the entire §4 effect.
func PipelinedLength(d *distrib.Distribution) int64 {
	ts := d.TS
	type ref struct {
		rank int
		t    int64
		wave int64
	}
	var tiles []ref
	for r := 0; r < d.NumProcs(); r++ {
		for t := int64(0); t < d.ChainLen[r]; t++ {
			jS := d.TileAt(r, t)
			var w int64
			for _, x := range jS {
				w += x
			}
			tiles = append(tiles, ref{r, t, w})
		}
	}
	sort.Slice(tiles, func(i, j int) bool {
		if tiles[i].wave != tiles[j].wave {
			return tiles[i].wave < tiles[j].wave
		}
		if tiles[i].rank != tiles[j].rank {
			return tiles[i].rank < tiles[j].rank
		}
		return tiles[i].t < tiles[j].t
	})
	if len(tiles) == 0 {
		return 0
	}
	// Completion step (1-based) per tile, indexed over the tile-space box:
	// every valid tile lies inside it.
	box := ilin.NewBoxIndexer(ts.TileLo, ts.TileHi)
	finish := make([]int64, box.Size())
	procFree := make([]int64, d.NumProcs())
	pred := make(ilin.Vec, ts.T.N)
	var makespan int64
	for _, tr := range tiles {
		tile := d.TileAt(tr.rank, tr.t)
		start := procFree[tr.rank]
		for _, dS := range ts.DS {
			for k := range pred {
				pred[k] = tile[k] - dS[k]
			}
			if !ts.ValidTile(pred) {
				continue
			}
			i, _ := box.Index(pred)
			start = max(start, finish[i])
		}
		end := start + 1
		i, _ := box.Index(tile)
		finish[i] = end
		procFree[tr.rank] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// CostModel is the per-step analytic estimate of Hodzic–Shang [9]: every
// schedule step costs one full tile of computation plus the tile's
// communication, and the pipeline executes PipelinedLength steps.
type CostModel struct {
	// Params is the same cluster cost model the simulator uses.
	Params simnet.Params
}

// Estimate is the closed-form completion-time prediction.
type Estimate struct {
	Steps    int64
	TileComp float64 // seconds of computation per full tile
	TileComm float64 // seconds of communication per tile (all directions)
	StepTime float64 // TileComp + TileComm
	Total    float64 // Steps × StepTime
	SeqTime  float64
	Speedup  float64
}

// Predict evaluates the model for a distribution. It uses full-tile
// communication volumes (interior steady state); boundary effects are what
// the simulator adds on top.
func (cm CostModel) Predict(d *distrib.Distribution) (*Estimate, error) {
	if err := cm.Params.Validate(); err != nil {
		return nil, err
	}
	ts := d.TS
	pi := Uniform(ts.T.N)
	if !pi.Valid(ts) {
		return nil, fmt.Errorf("schedule: Π = [1…1] violates a tile dependence")
	}
	est := &Estimate{Steps: PipelinedLength(d)}
	est.TileComp = float64(ts.T.TileSize) * cm.Params.IterTime
	for _, dm := range d.DM {
		n := d.FullTileCommCount(dm)
		if n == 0 {
			continue
		}
		values := float64(n * int64(cm.Params.Width))
		bytes := values * float64(cm.Params.ValueBytes)
		est.TileComm += cm.Params.SendOverhead + cm.Params.RecvOverhead +
			2*values*cm.Params.PackTime + bytes/cm.Params.Bandwidth
	}
	est.StepTime = est.TileComp + est.TileComm
	est.Total = float64(est.Steps) * est.StepTime
	var points int64
	ts.ScanTiles(func(jS ilin.Vec) bool {
		points += ts.CountTilePoints(jS, nil)
		return true
	})
	est.SeqTime = float64(points) * cm.Params.IterTime
	if est.Total > 0 {
		est.Speedup = est.SeqTime / est.Total
	}
	return est, nil
}
