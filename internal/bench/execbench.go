package bench

import (
	"fmt"
	"strings"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

// ExecAblation compares blocking and overlapped communication in the real
// runtime, next to the simulator's prediction for the same schedule: the
// same workload runs through exec.RunParallelOpts twice under an injected
// wire-cost model (simnet.Params.NetOptions), and through simnet.Simulate
// twice with Overlap off/on. Agreement of the predicted and measured
// winner is the end-to-end validation of the cost model's Overlap branch.
type ExecAblation struct {
	Workload string
	Procs    int
	Tiles    int64

	// Simulator makespans (seconds, at model scale).
	PredictedBlocking   float64
	PredictedOverlapped float64

	// Measured wall time of the real runtime (at the injected cost scale):
	// the best of three runs per arm.
	MeasuredBlocking   time.Duration
	MeasuredOverlapped time.Duration

	// Traffic of the overlapped run; OverlappedSends > 0 proves the Isend
	// path actually carried the halos.
	Stats mpi.Stats

	// MaxDiff is the worst deviation of either parallel run from the
	// serial reference (must be 0: overlap may not change results).
	MaxDiff float64
}

// PredictedWinner returns "overlap" or "blocking" per the simulator.
func (a *ExecAblation) PredictedWinner() string {
	if a.PredictedOverlapped < a.PredictedBlocking {
		return "overlap"
	}
	return "blocking"
}

// MeasuredWinner returns "overlap" or "blocking" per the real runtime.
func (a *ExecAblation) MeasuredWinner() string {
	if a.MeasuredOverlapped < a.MeasuredBlocking {
		return "overlap"
	}
	return "blocking"
}

// Agree reports whether prediction and measurement rank the two modes the
// same way.
func (a *ExecAblation) Agree() bool { return a.PredictedWinner() == a.MeasuredWinner() }

// Render formats the ablation as a report section.
func (a *ExecAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== executor ablation: blocking vs overlapped communication (%s, %d procs, %d tiles) ==\n",
		a.Workload, a.Procs, a.Tiles)
	fmt.Fprintf(&b, "%-22s %14s %14s %10s\n", "", "blocking", "overlap", "winner")
	fmt.Fprintf(&b, "%-22s %13.3fms %13.3fms %10s\n", "simnet makespan",
		a.PredictedBlocking*1e3, a.PredictedOverlapped*1e3, a.PredictedWinner())
	fmt.Fprintf(&b, "%-22s %13.3fms %13.3fms %10s\n", "measured wall time",
		float64(a.MeasuredBlocking.Microseconds())/1e3,
		float64(a.MeasuredOverlapped.Microseconds())/1e3, a.MeasuredWinner())
	verdict := "MATCH — cost model validated"
	if !a.Agree() {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(&b, "overlapped sends %d / %d messages, diff vs serial %g, prediction %s\n",
		a.Stats.OverlappedSends, a.Stats.Messages, a.MaxDiff, verdict)
	return b.String()
}

// RunExecAblation builds the SOR workload on an M×N×N space under the
// paper's non-rectangular tiling, verifies both communication modes
// against the serial reference, and measures them under the injected
// wire-cost model par.NetOptions(costScale).
func RunExecAblation(m, n int64, par simnet.Params, costScale float64) (*ExecAblation, error) {
	app, err := apps.SOR(m, n)
	if err != nil {
		return nil, err
	}
	h := app.NonRect[0].H(2, 4, 4)
	ts, err := tiling.Analyze(app.Nest, h)
	if err != nil {
		return nil, err
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		return nil, err
	}
	a := &ExecAblation{
		Workload: fmt.Sprintf("SOR M=%d N=%d, %s", m, n, app.NonRect[0].Name),
		Procs:    p.Dist.NumProcs(),
		Tiles:    ts.NumTiles(),
	}

	par.Width = p.Width
	par.Overlap = false
	simB, err := simnet.Simulate(p.Dist, par)
	if err != nil {
		return nil, err
	}
	par.Overlap = true
	simO, err := simnet.Simulate(p.Dist, par)
	if err != nil {
		return nil, err
	}
	a.PredictedBlocking = simB.Makespan
	a.PredictedOverlapped = simO.Makespan

	ref, err := p.RunSequential()
	if err != nil {
		return nil, err
	}
	// Inject the full cost model at costScale: wire costs through the mpi
	// world, compute cost (IterTime) through the executor — without the
	// latter, in-process kernels take nanoseconds and every schedule
	// degenerates to communication-bound.
	net := par.NetOptions(costScale)
	pointDelay := time.Duration(par.IterTime * costScale * float64(time.Second))
	// Best of three per arm with the arms alternated (B O, O B, B O): a
	// scheduler hiccup inflates one sample, not an arm's minimum, and a slow
	// stretch of the host lands on both arms instead of picking the winner.
	for i := 0; i < 3; i++ {
		for _, overlap := range [2]bool{i%2 == 1, i%2 == 0} {
			start := time.Now()
			g, stats, err := p.RunParallelOpts(exec.RunOptions{Overlap: overlap, Net: net, PointDelay: pointDelay})
			took := time.Since(start)
			if err != nil {
				return nil, err
			}
			if d, _ := ref.MaxAbsDiff(g, p.ScanSpace); d > a.MaxDiff {
				a.MaxDiff = d
			}
			best := &a.MeasuredBlocking
			if overlap {
				best = &a.MeasuredOverlapped
				a.Stats = stats
			}
			if *best == 0 || took < *best {
				*best = took
			}
		}
	}
	return a, nil
}
