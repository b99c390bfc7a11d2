package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
)

// PhaseComparison validates the simulator's cost model against the real
// runtime for one workload: the same tile schedule runs through
// simnet.SimulateTraced and through exec.RunParallelOpts with a Tracer
// attached, and the machine-wide compute and wait/idle fractions of the
// two timelines are compared. Fractions are scale-free, so they compare
// directly even though the measured run executes the model's costs
// costScale× slower (to land them in OS-timer range).
type PhaseComparison struct {
	App   string
	Procs int
	Tiles int64

	MeasuredCompute float64 // fraction of processor-time in the kernel sweep (median of measureRuns)
	MeasuredWait    float64 // fraction blocked on receives + idle fill/drain (median of measureRuns)
	SimCompute      float64
	SimWait         float64

	MeasuredMakespan time.Duration // wall time at the injected cost scale (median of measureRuns)
	SimMakespan      time.Duration // model makespan × costScale

	// Trace and Metrics expose the last measured run for export and
	// reporting.
	Trace   *simnet.Trace
	Metrics []exec.RankMetrics
}

// ComputeErr and WaitErr are the absolute fraction deviations.
func (pc *PhaseComparison) ComputeErr() float64 { return abs(pc.MeasuredCompute - pc.SimCompute) }
func (pc *PhaseComparison) WaitErr() float64    { return abs(pc.MeasuredWait - pc.SimWait) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// measureRuns is how many times a measured comparison runs each arm: an
// odd count, so a median is one run's figure.
const measureRuns = 5

// median returns the middle of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// RunTraceComparison runs one workload both ways under the same cost
// model and returns the phase-fraction comparison.
func RunTraceComparison(name string, app *apps.App, h *ilin.RatMat, par simnet.Params, costScale float64, overlap bool) (*PhaseComparison, error) {
	art, err := compile.Compile(compile.App(app, h))
	if err != nil {
		return nil, err
	}
	p := art.Prog
	par.Width = p.Width
	par.Overlap = overlap
	sim, err := simnet.SimulateTraced(p.Dist, par)
	if err != nil {
		return nil, err
	}

	// The run is measured measureRuns times and each figure is the median:
	// a run a loaded host slowed decides nothing.
	var compute, wait, elapsed []float64
	tr := exec.NewTracer()
	for range measureRuns {
		start := time.Now()
		_, _, err = p.RunParallelOpts(exec.RunOptions{
			Overlap:    overlap,
			Net:        par.NetOptions(costScale),
			PointDelay: time.Duration(par.IterTime * costScale * float64(time.Second)),
			Trace:      tr,
		})
		if err != nil {
			return nil, err
		}
		elapsed = append(elapsed, time.Since(start).Seconds())
		c, w := tr.Trace().ComputeWaitFractions()
		compute, wait = append(compute, c), append(wait, w)
	}

	pc := &PhaseComparison{
		App:              name,
		Procs:            art.Procs,
		Tiles:            art.Tiles,
		SimMakespan:      time.Duration(sim.Result.Makespan * costScale * float64(time.Second)),
		MeasuredMakespan: time.Duration(median(elapsed) * float64(time.Second)),
		MeasuredCompute:  median(compute),
		MeasuredWait:     median(wait),
		Trace:            tr.Trace(),
		Metrics:          tr.PerRank(),
	}
	pc.SimCompute, pc.SimWait = sim.ComputeWaitFractions()
	return pc, nil
}

// PhaseTolerance is the documented agreement bound between measured and
// simulated compute/wait fractions (absolute, fraction of makespan). Two
// known model/runtime gaps dominate it: the simulator charges
// RecvOverhead+PackTime on the receiver's critical path while the
// runtime's unpack is a few bulk copies too fast to bill, and the
// runtime's injected costs ride OS timers (time.Sleep granularity) that
// stretch under scheduler noise.
const PhaseTolerance = 0.15

// TraceExperiment is the measured-vs-simulated phase-fraction table over
// the paper's three applications.
type TraceExperiment struct {
	Rows []*PhaseComparison
}

// RunTraceExperiment runs the comparison for SOR (16 ranks, the
// acceptance configuration), Jacobi and ADI under their non-rectangular
// tilings. Overlap mode is off so the wait fractions include the full
// receive stalls the paper's blocking schedule exhibits.
func RunTraceExperiment(par simnet.Params, costScale float64) (*TraceExperiment, error) {
	e := &TraceExperiment{}
	for _, w := range []struct {
		name    string
		app     func() (*apps.App, error)
		x, y, z int64
	}{
		// SOR 6×16×16 under nr(2,5,5) distributes onto exactly 16 ranks.
		{"SOR", func() (*apps.App, error) { return apps.SOR(6, 16) }, 2, 5, 5},
		{"Jacobi", func() (*apps.App, error) { return apps.Jacobi(6, 16) }, 2, 4, 4},
		{"ADI", func() (*apps.App, error) { return apps.ADI(6, 12) }, 2, 4, 4},
	} {
		app, err := w.app()
		if err != nil {
			return nil, err
		}
		pc, err := RunTraceComparison(w.name, app, app.NonRect[0].H(w.x, w.y, w.z), par, costScale, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		e.Rows = append(e.Rows, pc)
	}
	return e, nil
}

// Agree reports whether every row is within PhaseTolerance.
func (e *TraceExperiment) Agree() bool {
	for _, pc := range e.Rows {
		if pc.ComputeErr() > PhaseTolerance || pc.WaitErr() > PhaseTolerance {
			return false
		}
	}
	return true
}

// Render formats the comparison as a report section.
func (e *TraceExperiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== measured vs simulated phase fractions (tolerance ±%.2f) ==\n", PhaseTolerance)
	fmt.Fprintf(&b, "%-8s %6s %6s %12s %12s %12s %12s %9s\n",
		"app", "procs", "tiles", "comp meas", "comp sim", "wait meas", "wait sim", "verdict")
	for _, pc := range e.Rows {
		verdict := "ok"
		if pc.ComputeErr() > PhaseTolerance || pc.WaitErr() > PhaseTolerance {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(&b, "%-8s %6d %6d %11.1f%% %11.1f%% %11.1f%% %11.1f%% %9s\n",
			pc.App, pc.Procs, pc.Tiles,
			pc.MeasuredCompute*100, pc.SimCompute*100,
			pc.MeasuredWait*100, pc.SimWait*100, verdict)
	}
	return b.String()
}
