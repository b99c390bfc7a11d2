package opt

import (
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
	"tilespace/internal/cone"
	"tilespace/internal/simnet"
)

func fastOpts() Options {
	return Options{Params: simnet.FastEthernetPIII(), MapDim: -1, Factors: []int64{2, 4, 8}}
}

func TestSearchADI(t *testing.T) {
	app, err := apps.ADI(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(app.Nest, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	// Candidates must be sorted by predicted speedup.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Estimate.Speedup > res.Candidates[i-1].Estimate.Speedup {
			t.Fatalf("candidates not sorted at %d", i)
		}
	}
	// The winner must be at least as good as every rectangular candidate:
	// the cone family dominates on ADI (the paper's conclusion).
	var bestRect float64
	for _, c := range res.Candidates {
		if c.Family == "rect" && c.Estimate.Speedup > bestRect {
			bestRect = c.Estimate.Speedup
		}
	}
	if res.Best.Estimate.Speedup < bestRect {
		t.Errorf("best %.3f below best rect %.3f", res.Best.Estimate.Speedup, bestRect)
	}
	// All candidates legal by construction; spot-check the winner.
	if !cone.New(app.Nest.Deps).LegalTiling(res.Best.H) {
		t.Error("winner is not a legal tiling")
	}
}

// TestSearchPrefersConeOnADI: with generous factor coverage the winner
// should come from the cone family (Hodzic-Shang optimality).
func TestSearchPrefersConeOnADI(t *testing.T) {
	app, err := apps.ADI(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(app.Nest, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Family != "cone" {
		// Not fatal for every cost model, but for this workload the cone
		// family should win: flag it loudly.
		t.Errorf("best family = %s (speedup %.3f); expected cone", res.Best.Family, res.Best.Estimate.Speedup)
	}
}

func TestSearchMaxTileSize(t *testing.T) {
	app, err := apps.ADI(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	o := fastOpts()
	o.MaxTileSize = 64
	res, err := Search(app.Nest, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.TileSize > 64 {
			t.Errorf("candidate tile size %d exceeds cap", c.TileSize)
		}
	}
	if res.Skipped == 0 {
		t.Error("expected skipped oversize candidates")
	}
}

func TestSearchCandidateCap(t *testing.T) {
	app, err := apps.ADI(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	o := fastOpts()
	o.MaxCandidates = 3
	res, err := Search(app.Nest, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates)+res.Skipped > 3 {
		t.Errorf("evaluated %d+%d candidates, cap was 3", len(res.Candidates), res.Skipped)
	}
}

func TestSearchBadParams(t *testing.T) {
	app, err := apps.ADI(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(app.Nest, Options{}); err == nil {
		t.Error("zero params not rejected")
	}
}

func TestConfirmAgreesOnWinner(t *testing.T) {
	app, err := apps.ADI(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	o := fastOpts()
	res, err := Search(app.Nest, o)
	if err != nil {
		t.Fatal(err)
	}
	// Re-score the winner with the discrete-event simulator.
	d, err := compile.Distribute(app.Nest, res.Best.H, res.Best.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simnet.Simulate(d, o.Params)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Speedup <= 0 {
		t.Errorf("simulated speedup %v", sim.Speedup)
	}
	// The analytic score should be within 2x of the simulated one.
	ratio := res.Best.Estimate.Speedup / sim.Speedup
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("model/sim speedup ratio %.2f out of band", ratio)
	}
}

// TestSearchSOR covers the skewed-space path (cone family with the
// paper's SOR rays).
func TestSearchSOR(t *testing.T) {
	app, err := apps.SOR(12, 24)
	if err != nil {
		t.Fatal(err)
	}
	o := fastOpts()
	o.Factors = []int64{3, 6, 9}
	res, err := Search(app.Nest, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no winner")
	}
	foundCone := false
	for _, c := range res.Candidates {
		if c.Family == "cone" {
			foundCone = true
			break
		}
	}
	if !foundCone {
		t.Error("no cone-family candidate survived for SOR")
	}
}
