package bench

import (
	"fmt"
	"strings"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
)

// FaultComparison validates the simulator's fault model against the real
// runtime for one failure scenario: the same mpi.FaultPlan drives
// simnet.SimulateFaults and exec.RunParallelOpts, and the degradation
// ratios (faulty makespan over fault-free makespan) of the two are
// compared. Ratios are scale-free, so the comparison survives the
// costScale× slowdown the measured run needs to land model costs in
// OS-timer range — exactly the trick RunTraceComparison uses for phase
// fractions.
type FaultComparison struct {
	Scenario string
	Procs    int

	MeasuredBaseline time.Duration // fault-free measured makespan, the median of measureRuns
	MeasuredFaulty   time.Duration // the same under the scenario

	MeasuredDegradation  float64 // MeasuredFaulty / MeasuredBaseline
	PredictedDegradation float64 // simulated faulty / fault-free makespan

	// Trace and Metrics expose the last measured faulty run — including its
	// crash/restart markers — for export and reporting.
	Trace   *simnet.Trace
	Metrics []exec.RankMetrics
}

// DegradationErr is the relative deviation of the measured degradation
// ratio from the predicted one.
func (fc *FaultComparison) DegradationErr() float64 {
	return abs(fc.MeasuredDegradation-fc.PredictedDegradation) / fc.PredictedDegradation
}

// FaultTolerance is the documented agreement bound on DegradationErr.
// It is looser than PhaseTolerance because a degradation ratio divides
// two measured makespans, compounding the timer noise of both, and
// because the model books recovery re-execution at nominal cost while
// the runtime's replayed tiles skip real wire waits.
const FaultTolerance = 0.30

// FaultScenario is one injected failure mode of the chaos matrix. Plan
// builds the fault schedule once the distribution's geometry (ranks,
// chain lengths, neighbor links) is known; the same plan object then
// drives both the simulator and the runtime.
type FaultScenario struct {
	Name string
	// CheckpointEvery enables tile-chain checkpointing in the measured run
	// (and bounds the simulated crash rewind); 0 leaves it off.
	CheckpointEvery int64
	Plan            func(d *distrib.Distribution, par simnet.Params, costScale float64) *mpi.FaultPlan
}

// DefaultFaultScenarios returns the degradation scenarios of the report:
// a slow rank, a slow link and a crash with checkpointed restart. The
// injected magnitudes are tied to the cost model (latency multiples,
// makespan-scale restart delay) so the degradation is well above timer
// noise at any costScale.
func DefaultFaultScenarios() []FaultScenario {
	return []FaultScenario{
		{
			Name: "straggler",
			Plan: func(d *distrib.Distribution, par simnet.Params, costScale float64) *mpi.FaultPlan {
				return &mpi.FaultPlan{Slowdown: map[int]float64{d.NumProcs() / 2: 3}}
			},
		},
		{
			Name: "slow-link",
			Plan: func(d *distrib.Distribution, par simnet.Params, costScale float64) *mpi.FaultPlan {
				// Every outgoing link of a mid-grid rank pays a few extra
				// latencies per message; the victim's sends sit on the
				// blocking critical path, so the stall is visible machine-wide.
				victim := d.NumProcs() / 2
				delay := time.Duration(3 * par.Latency * costScale * float64(time.Second))
				links := map[mpi.Link]mpi.LinkFault{}
				for _, dm := range d.DM {
					if dst, ok := d.Rank(d.Pids[victim].Add(dm)); ok {
						links[mpi.Link{Src: victim, Dst: dst}] = mpi.LinkFault{Delay: delay, Jitter: delay / 2}
					}
				}
				return &mpi.FaultPlan{Seed: 1, Links: links}
			},
		},
		{
			Name:            "crash-restart",
			CheckpointEvery: 2,
			Plan: func(d *distrib.Distribution, par simnet.Params, costScale float64) *mpi.FaultPlan {
				victim := d.NumProcs() / 2
				return &mpi.FaultPlan{
					Crash: map[int]int64{victim: d.ChainLen[victim] / 2},
					// A restart outage on the order of the fault-free makespan:
					// large against timer noise, small enough to finish fast.
					RestartDelay: time.Duration(2e-3 * costScale * float64(time.Second)),
				}
			},
		},
	}
}

// FaultExperiment is the measured-vs-predicted degradation table over the
// default scenarios on the 16-rank SOR acceptance configuration.
type FaultExperiment struct {
	Rows []*FaultComparison
}

// RunFaultExperiment runs every default scenario on SOR 6×16×16 under the
// nr(2,5,5) tiling (16 ranks, the acceptance configuration shared with
// RunTraceExperiment), simulated and measured. The measured runs go in
// measureRuns rounds, each the fault-free run once and then every
// scenario's faulty run, and a degradation divides the medians: a stretch
// a loaded host slowed hits both arms alike and decides nothing.
func RunFaultExperiment(par simnet.Params, costScale float64) (*FaultExperiment, error) {
	app, err := apps.SOR(6, 16)
	if err != nil {
		return nil, err
	}
	art, err := compile.Compile(compile.App(app, app.NonRect[0].H(2, 5, 5)))
	if err != nil {
		return nil, err
	}
	p := art.Prog
	par.Width = p.Width
	// Blocking mode: injected link delays and retry backoffs stall the
	// sender's CPU in both layers, and a crash can drop no in-flight
	// messages — the regime where the model is tightest.
	par.Overlap = false
	simBase, err := simnet.Simulate(p.Dist, par)
	if err != nil {
		return nil, err
	}
	scs := DefaultFaultScenarios()
	plans := make([]*mpi.FaultPlan, len(scs))
	e := &FaultExperiment{}
	for i, sc := range scs {
		plans[i] = sc.Plan(p.Dist, par, costScale)
		simFault, err := simnet.SimulateFaults(p.Dist, par, simnet.FaultModel{
			Plan: plans[i], CheckpointEvery: sc.CheckpointEvery, DurScale: costScale,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		e.Rows = append(e.Rows, &FaultComparison{Scenario: sc.Name, Procs: p.Dist.NumProcs(),
			PredictedDegradation: simFault.Makespan / simBase.Makespan})
	}

	measure := func(fp *mpi.FaultPlan, every int64) (float64, *exec.Tracer, error) {
		tr := exec.NewTracer()
		opt := exec.RunOptions{
			Net:        par.NetOptions(costScale),
			PointDelay: time.Duration(par.IterTime * costScale * float64(time.Second)),
			Trace:      tr,
		}
		opt.Net.Faults = fp
		if every > 0 {
			opt.Checkpoint = &exec.CheckpointOptions{Every: every}
		}
		if _, _, err := p.RunParallelOpts(opt); err != nil {
			return 0, nil, err
		}
		return tr.Trace().Result.Makespan, tr, nil
	}
	var base []float64
	faulty := make([][]float64, len(scs))
	last := make([]*exec.Tracer, len(scs))
	for range measureRuns {
		mk, _, err := measure(nil, 0)
		if err != nil {
			return nil, fmt.Errorf("fault-free: %w", err)
		}
		base = append(base, mk)
		for i, sc := range scs {
			if mk, last[i], err = measure(plans[i], sc.CheckpointEvery); err != nil {
				return nil, fmt.Errorf("%s faulty: %w", sc.Name, err)
			}
			faulty[i] = append(faulty[i], mk)
		}
	}
	baseMk := median(base)
	if baseMk <= 0 || simBase.Makespan <= 0 {
		return nil, fmt.Errorf("degenerate baseline makespan")
	}
	for i, fc := range e.Rows {
		faultMk := median(faulty[i])
		fc.MeasuredBaseline = time.Duration(baseMk * float64(time.Second))
		fc.MeasuredFaulty = time.Duration(faultMk * float64(time.Second))
		fc.MeasuredDegradation = faultMk / baseMk
		fc.Trace, fc.Metrics = last[i].Trace(), last[i].PerRank()
	}
	return e, nil
}

// Agree reports whether every scenario's degradation is within FaultTolerance.
func (e *FaultExperiment) Agree() bool {
	for _, fc := range e.Rows {
		if fc.DegradationErr() > FaultTolerance {
			return false
		}
	}
	return true
}

// Render formats the degradation comparison as a report section.
func (e *FaultExperiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fault degradation: measured vs simnet-predicted (tolerance ±%.0f%% rel) ==\n", FaultTolerance*100)
	fmt.Fprintf(&b, "%-14s %6s %12s %12s %10s %10s %9s\n",
		"scenario", "procs", "base meas", "fault meas", "deg meas", "deg sim", "verdict")
	for _, fc := range e.Rows {
		verdict := "ok"
		if fc.DegradationErr() > FaultTolerance {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(&b, "%-14s %6d %12s %12s %9.2fx %9.2fx %9s\n",
			fc.Scenario, fc.Procs,
			fc.MeasuredBaseline.Round(100*time.Microsecond),
			fc.MeasuredFaulty.Round(100*time.Microsecond),
			fc.MeasuredDegradation, fc.PredictedDegradation, verdict)
	}
	return b.String()
}
