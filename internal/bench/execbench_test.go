package bench

import (
	"strings"
	"testing"

	"tilespace/internal/simnet"
)

// TestExecAblationValidatesCostModel closes the loop the ISSUE asks for:
// the same SOR schedule runs with Overlap on/off both in the simulator and
// in the real runtime (under the simulator's own injected cost model —
// wire costs via NetOptions, compute cost via PointDelay), and the
// predicted winner must match the measured one. The parameters put
// compute and transfer in the same order of magnitude, which is where the
// overlap gain (blocking ≈ c+τ vs overlapped ≈ max(c,τ)) is largest.
func TestExecAblationValidatesCostModel(t *testing.T) {
	par := simnet.FastEthernetPIII()
	par.Bandwidth = 3e5 // values/s — slow enough that transfers rival compute
	par.IterTime = 5e-6 // s/point — gives the NIC work to hide behind
	// Scale the model costs up to OS-timer range so wall-clock differences
	// dwarf goroutine scheduling noise (~10ms absolute gap at this scale).
	const costScale = 10
	// Each arm's wall time is the best of three alternated runs (see
	// RunExecAblation), which is what keeps a loaded host from flipping the
	// measured winner.
	a, err := RunExecAblation(6, 16, par, costScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxDiff != 0 {
		t.Fatalf("parallel results deviate from serial by %g", a.MaxDiff)
	}
	if a.PredictedOverlapped >= a.PredictedBlocking {
		t.Fatalf("simulator predicts no overlap gain (%.6f vs %.6f) — FastEthernet SOR should be communication-bound",
			a.PredictedOverlapped, a.PredictedBlocking)
	}
	if a.Stats.OverlappedSends == 0 || a.Stats.OverlappedSends != a.Stats.Messages {
		t.Fatalf("overlapped run traffic %+v: not all messages took the Isend path", a.Stats)
	}
	if !a.Agree() {
		t.Fatalf("predicted winner %q but measured %q (sim %.3fms/%.3fms, wall %v/%v)",
			a.PredictedWinner(), a.MeasuredWinner(),
			a.PredictedBlocking*1e3, a.PredictedOverlapped*1e3,
			a.MeasuredBlocking, a.MeasuredOverlapped)
	}
	r := a.Render()
	for _, want := range []string{"executor ablation", "simnet makespan", "measured wall time", "MATCH"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
}
