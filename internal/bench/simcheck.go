package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
)

// The simulator check is the timing evidence that simnet stands in for the
// paper's cluster: each row runs one compiled plan through
// simnet.SimulateTraced and through exec.RunParallelOpts with a Tracer
// attached, under the same cost model (and, on a scenario row, the same
// mpi.FaultPlan), and compares scale-free figures of the two timelines —
// phase fractions on a fault-free row, the degradation ratio over the SOR
// fault-free row on a scenario row. Scale-free figures compare directly
// even though the measured run executes the model's costs costScale×
// slower, to land them in OS-timer range.

// costScale multiplies the modelled costs of a measured run.
const costScale = 10

// measuredParams is the cost model of the check: the paper's testbed with
// compute and transfer tuned so every phase is visible at costScale.
func measuredParams() simnet.Params {
	par := simnet.FastEthernetPIII()
	par.Bandwidth = 3e5
	par.IterTime = 5e-6
	return par
}

// measureRuns is how many times each row is measured: an odd count, so a
// median is one run's figure.
const measureRuns = 5

// PhaseTolerance is the documented agreement bound between measured and
// simulated compute/wait fractions (absolute, fraction of makespan). Two
// known model/runtime gaps dominate it: the simulator charges
// RecvOverhead+PackTime on the receiver's critical path while the
// runtime's unpack is a few bulk copies too fast to bill, and the
// runtime's injected costs ride OS timers (time.Sleep granularity) that
// stretch under scheduler noise.
const PhaseTolerance = 0.15

// FaultTolerance is the documented agreement bound on DegradationErr.
// It is looser than PhaseTolerance because a degradation ratio divides
// two measured makespans, compounding the timer noise of both, and
// because the model books recovery re-execution at nominal cost while
// the runtime's replayed tiles skip real wire waits.
const FaultTolerance = 0.30

// SimCheckRow is one row of the check: a workload fault-free (Baseline
// nil), or the SOR plan under one fault scenario, whose Baseline is the
// SOR fault-free row.
type SimCheckRow struct {
	App, Scenario string
	Procs         int
	Tiles         int64

	// Fractions of processor-time in the kernel sweep and stalled (receive
	// waits plus idle fill/drain); the measured ones are medians of
	// measureRuns.
	MeasuredCompute, MeasuredWait float64
	SimCompute, SimWait           float64

	MeasuredMakespan time.Duration // of the measured timeline at costScale (median of measureRuns)
	SimMakespan      time.Duration // model makespan × costScale

	Baseline *SimCheckRow

	// Trace and Metrics expose the last measured run, crash/restart
	// markers included, for export and reporting.
	Trace   *simnet.Trace
	Metrics []exec.RankMetrics
}

// ComputeErr and WaitErr are the absolute fraction deviations.
func (r *SimCheckRow) ComputeErr() float64 { return abs(r.MeasuredCompute - r.SimCompute) }
func (r *SimCheckRow) WaitErr() float64    { return abs(r.MeasuredWait - r.SimWait) }

// Degradation returns the measured and the predicted ratio of a scenario
// row's makespan to its baseline's.
func (r *SimCheckRow) Degradation() (measured, predicted float64) {
	return float64(r.MeasuredMakespan) / float64(r.Baseline.MeasuredMakespan),
		float64(r.SimMakespan) / float64(r.Baseline.SimMakespan)
}

// DegradationErr is the relative deviation of the measured degradation
// from the predicted one.
func (r *SimCheckRow) DegradationErr() float64 {
	m, p := r.Degradation()
	return abs(m-p) / p
}

// agrees checks a fault-free row's fractions against PhaseTolerance and a
// scenario row's degradation against FaultTolerance.
func (r *SimCheckRow) agrees() bool {
	if r.Baseline != nil {
		return r.DegradationErr() <= FaultTolerance
	}
	return r.ComputeErr() <= PhaseTolerance && r.WaitErr() <= PhaseTolerance
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// median returns the middle of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// faultScenario is one injected failure mode. plan builds the fault
// schedule from the distribution's geometry (ranks, chain lengths,
// neighbor links); the same plan then drives the simulator and the
// runtime. checkpointEvery enables tile-chain checkpointing in the
// measured run and bounds the simulated crash rewind; 0 leaves it off.
type faultScenario struct {
	name            string
	checkpointEvery int64
	plan            func(d *distrib.Distribution, par simnet.Params) *mpi.FaultPlan
}

// faultScenarios are a slow rank, a slow link and a crash with
// checkpointed restart. The injected magnitudes are tied to the cost model
// (latency multiples, makespan-scale restart delay) so the degradation is
// well above timer noise.
var faultScenarios = []faultScenario{
	{name: "straggler", plan: func(d *distrib.Distribution, _ simnet.Params) *mpi.FaultPlan {
		return &mpi.FaultPlan{Slowdown: map[int]float64{d.NumProcs() / 2: 3}}
	}},
	{name: "slow-link", plan: func(d *distrib.Distribution, par simnet.Params) *mpi.FaultPlan {
		// Every outgoing link of a mid-grid rank pays a few extra latencies
		// per message; the victim's sends sit on the blocking critical
		// path, so the stall is visible machine-wide.
		victim := d.NumProcs() / 2
		delay := time.Duration(3 * par.Latency * costScale * float64(time.Second))
		links := map[mpi.Link]mpi.LinkFault{}
		for _, dm := range d.DM {
			if dst, ok := d.Rank(d.Pids[victim].Add(dm)); ok {
				links[mpi.Link{Src: victim, Dst: dst}] = mpi.LinkFault{Delay: delay, Jitter: delay / 2}
			}
		}
		return &mpi.FaultPlan{Seed: 1, Links: links}
	}},
	{name: "crash-restart", checkpointEvery: 2, plan: func(d *distrib.Distribution, _ simnet.Params) *mpi.FaultPlan {
		victim := d.NumProcs() / 2
		return &mpi.FaultPlan{
			Crash: map[int]int64{victim: d.ChainLen[victim] / 2},
			// A restart outage on the order of the fault-free makespan:
			// large against timer noise, small enough to finish fast.
			RestartDelay: time.Duration(2e-3 * costScale * float64(time.Second)),
		}
	}},
}

// SimCheck is the check's table: SOR, Jacobi and ADI fault-free, then SOR
// under each fault scenario.
type SimCheck struct {
	Rows []*SimCheckRow
}

// RunSimCheck compiles and simulates each workload once — SOR 6×16×16
// under nr(2,5,5), which distributes onto exactly 16 ranks, then Jacobi and
// ADI under their non-rectangular tilings — and the SOR plan once more per
// fault scenario. Every run blocks on its sends, so the wait fractions hold
// the full receive stalls of the paper's schedule, injected link delays
// and retry backoffs stall the sender's CPU in both layers, and a crash
// can drop no in-flight message: the regime where the model is tightest.
// The measured runs go in measureRuns rounds, each running every row once,
// and every figure is a median, so a stretch a loaded host slowed hits
// every row alike and decides nothing.
func RunSimCheck() (*SimCheck, error) {
	type arm struct {
		row               *SimCheckRow
		p                 *exec.Program
		opt               exec.RunOptions
		compute, wait, mk []float64
	}
	var arms []*arm
	add := func(row *SimCheckRow, p *exec.Program, fm *simnet.FaultModel) error {
		par := measuredParams()
		par.Width = p.Width
		sim, err := simnet.SimulateTraced(p.Dist, par, fm)
		if err != nil {
			return fmt.Errorf("%s %s: %w", row.App, row.Scenario, err)
		}
		row.SimCompute, row.SimWait = sim.ComputeWaitFractions()
		row.SimMakespan = time.Duration(sim.Result.Makespan * costScale * float64(time.Second))
		a := &arm{row: row, p: p, opt: exec.RunOptions{
			Net:        par.NetOptions(costScale),
			PointDelay: time.Duration(par.IterTime * costScale * float64(time.Second)),
			Trace:      exec.NewTracer(),
		}}
		if fm != nil {
			a.opt.Net.Faults = fm.Plan
			if fm.CheckpointEvery > 0 {
				a.opt.Checkpoint = &exec.CheckpointOptions{Every: fm.CheckpointEvery}
			}
		}
		arms = append(arms, a)
		return nil
	}
	for _, w := range []struct {
		name    string
		app     func() (*apps.App, error)
		x, y, z int64
	}{
		{"SOR", func() (*apps.App, error) { return apps.SOR(6, 16) }, 2, 5, 5},
		{"Jacobi", func() (*apps.App, error) { return apps.Jacobi(6, 16) }, 2, 4, 4},
		{"ADI", func() (*apps.App, error) { return apps.ADI(6, 12) }, 2, 4, 4},
	} {
		app, err := w.app()
		if err != nil {
			return nil, err
		}
		art, err := compile.Compile(compile.App(app, app.NonRect[0].H(w.x, w.y, w.z)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := add(&SimCheckRow{App: w.name, Procs: art.Procs, Tiles: art.Tiles}, art.Prog, nil); err != nil {
			return nil, err
		}
	}
	sor := arms[0]
	for _, sc := range faultScenarios {
		fm := &simnet.FaultModel{Plan: sc.plan(sor.p.Dist, measuredParams()), CheckpointEvery: sc.checkpointEvery, DurScale: costScale}
		row := &SimCheckRow{App: sor.row.App, Scenario: sc.name, Procs: sor.row.Procs, Tiles: sor.row.Tiles, Baseline: sor.row}
		if err := add(row, sor.p, fm); err != nil {
			return nil, err
		}
	}

	for range measureRuns {
		for _, a := range arms {
			if _, _, err := a.p.RunParallelOpts(a.opt); err != nil {
				return nil, fmt.Errorf("%s %s: %w", a.row.App, a.row.Scenario, err)
			}
			tr := a.opt.Trace.Trace()
			c, w := tr.ComputeWaitFractions()
			a.compute, a.wait, a.mk = append(a.compute, c), append(a.wait, w), append(a.mk, tr.Result.Makespan)
		}
	}
	c := &SimCheck{}
	for _, a := range arms {
		r := a.row
		r.MeasuredCompute, r.MeasuredWait = median(a.compute), median(a.wait)
		r.MeasuredMakespan = time.Duration(median(a.mk) * float64(time.Second))
		if r.MeasuredMakespan <= 0 || r.SimMakespan <= 0 {
			return nil, fmt.Errorf("%s %s: degenerate makespan", r.App, r.Scenario)
		}
		r.Trace, r.Metrics = a.opt.Trace.Trace(), a.opt.Trace.PerRank()
		c.Rows = append(c.Rows, r)
	}
	return c, nil
}

// Agree reports whether every row is within its tolerance.
func (c *SimCheck) Agree() bool {
	for _, r := range c.Rows {
		if !r.agrees() {
			return false
		}
	}
	return true
}

// Render formats the check as a report section: phase fractions on every
// row, the degradation columns on the scenario rows.
func (c *SimCheck) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== measured vs simulated (phase fractions ±%.2f abs, fault degradation ±%.0f%% rel) ==\n",
		PhaseTolerance, FaultTolerance*100)
	fmt.Fprintf(&b, "%-7s %-14s %5s %5s %10s %10s %10s %10s %9s %9s %9s\n",
		"app", "scenario", "procs", "tiles", "comp meas", "comp sim", "wait meas", "wait sim", "deg meas", "deg sim", "verdict")
	for _, r := range c.Rows {
		scenario, degM, degS := "fault-free", "-", "-"
		if r.Baseline != nil {
			m, p := r.Degradation()
			scenario, degM, degS = r.Scenario, fmt.Sprintf("%.2fx", m), fmt.Sprintf("%.2fx", p)
		}
		verdict := "ok"
		if !r.agrees() {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(&b, "%-7s %-14s %5d %5d %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9s %9s %9s\n",
			r.App, scenario, r.Procs, r.Tiles, r.MeasuredCompute*100, r.SimCompute*100,
			r.MeasuredWait*100, r.SimWait*100, degM, degS, verdict)
	}
	return b.String()
}
