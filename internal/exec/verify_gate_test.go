package exec_test

import (
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// TestRunParallelVerifyGate exercises pre-run certification: a sound
// program passes verify.Certify — the gate tilec -verify and the serve
// layer's Artifact.Certificate put in front of a run — and then runs and
// matches the sequential oracle, proving the gate does not reject correct
// plans.
func TestRunParallelVerifyGate(t *testing.T) {
	app, err := apps.SOR(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.Rect.H(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Certify(p.TS, p.Dist); err != nil {
		t.Fatalf("certifier rejected a sound program: %v", err)
	}
	g, _, err := p.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatalf("verified run: %v", err)
	}
	if diff, at := seq.MaxAbsDiff(g, p.ScanSpace); diff != 0 {
		t.Fatalf("verified run differs from sequential by %g at %v", diff, at)
	}
}
