// Command clusterbench reproduces every figure of the paper's evaluation
// (§4) on the simulated 16-node Pentium-III/FastEthernet cluster:
//
//	Fig. 5/6  — SOR:    maximum speedups per space; speedups vs tile size
//	Fig. 7/8  — Jacobi: maximum speedups per space; speedups vs tile size
//	Fig. 9/10 — ADI:    maximum speedups per space; speedups vs tile size
//
// plus the §4.4 average-improvement summary and the overlap-scheduling
// ablation ([8], the paper's future work).
//
// Usage:
//
//	clusterbench                  # all figures at full paper scale
//	clusterbench -fig 6           # one figure
//	clusterbench -scale 4         # shrink every space dimension 4×
//	clusterbench -overlap         # also run the overlap ablation (simulator)
//	clusterbench -fig none -wirecheck wirecheck.json  # model-check the resume protocol
//	clusterbench -trace out.json  # trace the real runtime, export Chrome JSON
//	clusterbench -gantt           # text Gantt of the measured SOR timeline
//	clusterbench -faults          # fault-injection degradation, measured vs predicted
//	clusterbench -faulttrace f.json  # also export the crash-restart run's timeline
//	clusterbench -o results.txt   # tee output to a file
//
// -trace runs SOR/Jacobi/ADI through the real runtime with the per-rank
// tracer attached, compares measured phase fractions against
// simnet.SimulateTraced, and writes the measured 16-rank SOR timeline as
// Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tilespace/internal/bench"
	"tilespace/internal/simnet"
	"tilespace/internal/verify/wirecheck"
)

func main() {
	var (
		figFlag  = flag.String("fig", "all", "figure to run: 5..10, all, or none (ablations only)")
		scale    = flag.Int64("scale", 1, "shrink space dimensions by this factor (1 = paper scale)")
		overlap  = flag.Bool("overlap", false, "also run the computation-communication overlap ablation")
		tracePth = flag.String("trace", "", "trace the real runtime and write the measured SOR timeline as Chrome trace_event JSON to this path")
		gantt    = flag.Bool("gantt", false, "with -trace (or alone): render a text Gantt of the measured SOR timeline")
		faults   = flag.Bool("faults", false, "run the fault-injection degradation scenarios in the real runtime and compare with simnet's prediction")
		faultTr  = flag.String("faulttrace", "", "with -faults: write the measured crash-restart timeline as Chrome trace_event JSON to this path")
		wireChk  = flag.String("wirecheck", "", "exhaustively model-check the TCP resume protocol (certification matrix plus seeded mutations) and write the JSON report to this path (e.g. wirecheck.json)")
		outPath  = flag.String("o", "", "also write the report to this file")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	figs, err := bench.Figures(bench.Scale(*scale))
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterbench: %v\n", err)
		os.Exit(1)
	}
	par := simnet.FastEthernetPIII()

	fmt.Fprintf(out, "tilespace clusterbench — simulated %s cluster model, scale 1/%d\n",
		"FastEthernet + Pentium-III/500", *scale)
	fmt.Fprintf(out, "(paper: Goumas et al., Compiling Tiled Iteration Spaces for Clusters, CLUSTER 2002)\n\n")

	improvements := map[string]float64{}
	matched := 0
	for _, f := range figs {
		if *figFlag == "none" {
			break
		}
		if *figFlag != "all" && f.ID != "fig"+*figFlag {
			continue
		}
		matched++
		start := time.Now()
		fr, err := f.Run(par)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		fmt.Fprint(out, fr.Render())
		fmt.Fprintf(out, "(%s computed in %.1fs)\n\n", f.ID, time.Since(start).Seconds())
		switch f.ID {
		case "fig5":
			improvements["SOR"] = fr.AverageImprovement()
		case "fig7":
			improvements["Jacobi"] = fr.AverageImprovement()
		case "fig9":
			improvements["ADI"] = fr.AverageImprovement()
		}
	}

	if *figFlag != "all" && *figFlag != "none" && matched == 0 {
		fmt.Fprintf(os.Stderr, "clusterbench: no figure %q (use 5..10, all, or none)\n", *figFlag)
		os.Exit(2)
	}

	if len(improvements) > 0 {
		fmt.Fprintf(out, "== §4.4 summary: average speedup improvement of non-rectangular over rectangular ==\n")
		for _, app := range []string{"SOR", "Jacobi", "ADI"} {
			if v, ok := improvements[app]; ok {
				paper := map[string]float64{"SOR": 17.3, "Jacobi": 9.1, "ADI": 10.1}[app]
				fmt.Fprintf(out, "%-8s measured %+6.1f%%   (paper: %+.1f%%)\n", app, v, paper)
			}
		}
		fmt.Fprintln(out)
	}

	if *overlap {
		runOverlapAblation(out, bench.Scale(*scale), par)
	}

	if *tracePth != "" || *gantt {
		runTraceReport(out, *tracePth, *gantt, par)
	}

	if *faults || *faultTr != "" {
		runFaultReport(out, *faultTr, par)
	}

	if *wireChk != "" {
		runWireCheck(out, *wireChk)
	}
}

// fail reports a report's runtime error and exits non-zero, so the CI step
// running it goes red.
func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "clusterbench: %s: %v\n", what, err)
	os.Exit(1)
}

// wirecheckReport is the committed/artifacted shape of one full
// certification run: every matrix configuration exhausted, every seeded
// mutation rejected with its counterexample trace.
type wirecheckReport struct {
	Matrix    []wirecheckConfigReport   `json:"matrix"`
	Mutations []wirecheckMutationReport `json:"mutations"`
	Ok        bool                      `json:"ok"`
}

type wirecheckConfigReport struct {
	Name        string  `json:"name"`
	States      int     `json:"states"`
	Transitions int     `json:"transitions"`
	Detected    int     `json:"detected_failures,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Ok          bool    `json:"ok"`
	Truncated   bool    `json:"truncated,omitempty"`
	Violation   string  `json:"violation,omitempty"`
}

type wirecheckMutationReport struct {
	Name      string  `json:"name"`
	States    int     `json:"states"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Rejected  bool    `json:"rejected"`
	Invariant string  `json:"invariant,omitempty"`
	Trace     string  `json:"trace,omitempty"`
}

// runWireCheck exhaustively model-checks the resume protocol: the
// default matrix must certify (no violation, no truncation) and every
// seeded mutation must be rejected with a concrete counterexample. Any
// other outcome fails the command; the JSON report is written either
// way so CI can archive the trace.
func runWireCheck(out io.Writer, path string) {
	rep := wirecheckReport{Ok: true}
	fmt.Fprintf(out, "== wirecheck: resume-protocol certification ==\n")
	for _, mc := range wirecheck.DefaultMatrix() {
		start := time.Now()
		res := wirecheck.Check(mc.Cfg)
		cr := wirecheckConfigReport{
			Name: mc.Name, States: res.States, Transitions: res.Transitions,
			Detected:  res.DetectedFailures,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Ok:        res.Ok(), Truncated: res.Truncated,
		}
		if res.Violation != nil {
			cr.Violation = res.Violation.String()
		}
		rep.Matrix = append(rep.Matrix, cr)
		verdict := "certified"
		if !cr.Ok {
			verdict = "FAILED"
			rep.Ok = false
		}
		fmt.Fprintf(out, "%-26s %9d states %10d transitions %8.0fms  %s\n",
			mc.Name, res.States, res.Transitions, cr.ElapsedMS, verdict)
		if cr.Violation != "" {
			fmt.Fprintf(os.Stderr, "clusterbench: wirecheck: %s:\n%s\n", mc.Name, cr.Violation)
		}
	}
	for _, m := range wirecheck.Mutations() {
		start := time.Now()
		res := wirecheck.Check(m.Cfg)
		mr := wirecheckMutationReport{
			Name: m.Name, States: res.States,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Rejected:  res.Violation != nil,
		}
		verdict := "MUTATION SURVIVED"
		if res.Violation != nil {
			mr.Invariant = res.Violation.Invariant
			mr.Trace = res.Violation.String()
			verdict = fmt.Sprintf("rejected (%s, %d-step trace)", mr.Invariant, len(res.Violation.Steps))
		} else {
			rep.Ok = false
			fmt.Fprintf(os.Stderr, "clusterbench: wirecheck: mutation %s certified cleanly — the protocol core no longer depends on this decision\n", m.Name)
		}
		rep.Mutations = append(rep.Mutations, mr)
		fmt.Fprintf(out, "%-26s %9d states  %s\n", "mutation:"+m.Name, res.States, verdict)
	}
	fmt.Fprintln(out)

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("wirecheck", err)
	}
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		fail("wirecheck", err)
	}
	if !rep.Ok {
		fmt.Fprintf(os.Stderr, "clusterbench: wirecheck: certification FAILED (report in %s)\n", path)
		os.Exit(1)
	}
}

// runFaultReport runs the fault-injection scenarios (straggler, slow
// link, crash with checkpointed restart) through the real runtime and
// prints the measured-vs-predicted degradation table; optionally exports
// the measured crash-restart timeline — fault markers included — as
// Chrome trace_event JSON.
func runFaultReport(out io.Writer, path string, par simnet.Params) {
	// Same cost balance as the trace report, scaled into OS-timer range.
	par.Bandwidth = 3e5
	par.IterTime = 5e-6
	e, err := bench.RunFaultExperiment(par, 10)
	if err != nil {
		fail("faults", err)
	}
	fmt.Fprint(out, e.Render())
	if !e.Agree() {
		fmt.Fprintf(out, "WARNING: degradation diverged beyond ±%.0f%%\n", bench.FaultTolerance*100)
	}
	fmt.Fprintln(out)

	if path != "" {
		crash := e.Rows[len(e.Rows)-1]
		js, err := crash.Trace.TraceEventJSON()
		if err != nil {
			fail("faults", err)
		}
		if err := os.WriteFile(path, js, 0o644); err != nil {
			fail("faults", err)
		}
		fmt.Fprintf(out, "wrote fault-run Chrome trace_event JSON (%d bytes) to %s — crash/restart appear as instant markers\n\n", len(js), path)
	}
}

// runTraceReport runs the measured-vs-simulated phase experiment, prints
// the comparison table and the 16-rank SOR straggler summary, optionally
// renders a text Gantt over the measured timeline, and exports the SOR
// trace as Chrome trace_event JSON.
func runTraceReport(out io.Writer, path string, gantt bool, par simnet.Params) {
	// Compute vs transfer tuned so phases are visible, scaled 10× into
	// OS-timer range.
	par.Bandwidth = 3e5
	par.IterTime = 5e-6
	e, err := bench.RunTraceExperiment(par, 10)
	if err != nil {
		fail("trace", err)
	}
	fmt.Fprint(out, e.Render())
	if !e.Agree() {
		fmt.Fprintf(out, "WARNING: phase fractions diverged beyond ±%.2f\n", bench.PhaseTolerance)
	}
	fmt.Fprintln(out)

	sor := e.Rows[0]
	crit, idle := sor.Trace.CriticalRank()
	fmt.Fprintf(out, "SOR measured: %d ranks, %d tiles, makespan %v (sim %v); critical rank %d, %.0f%% idle\n",
		sor.Procs, sor.Tiles, sor.MeasuredMakespan.Round(time.Millisecond),
		sor.SimMakespan.Round(time.Millisecond), crit, idle*100)
	if gantt {
		fmt.Fprint(out, sor.Trace.Gantt(72))
	}
	fmt.Fprintln(out)

	if path != "" {
		js, err := sor.Trace.TraceEventJSON()
		if err != nil {
			fail("trace", err)
		}
		if err := os.WriteFile(path, js, 0o644); err != nil {
			fail("trace", err)
		}
		fmt.Fprintf(out, "wrote Chrome trace_event JSON (%d bytes) to %s — open in chrome://tracing or ui.perfetto.dev\n\n", len(js), path)
	}
}

// runOverlapAblation compares blocking sends with the overlapped scheme of
// the paper's future-work reference [8] on the Fig. 6 SOR sweep.
func runOverlapAblation(out io.Writer, sc bench.Scale, par simnet.Params) {
	s, err := bench.SORSweep("ablation", 100/int64(sc)+4, 200/int64(sc)+4, []int64{5, 10, 20})
	if err != nil {
		fail("ablation", err)
	}
	blocking, err := s.Run(par)
	if err != nil {
		fail("ablation", err)
	}
	par.Overlap = true
	overlapped, err := s.Run(par)
	if err != nil {
		fail("ablation", err)
	}
	fmt.Fprintf(out, "== ablation: blocking vs overlapped communication (SOR, %s) ==\n", s.Space)
	fmt.Fprintf(out, "%8s %12s %12s %8s\n", "z", "S(blocking)", "S(overlap)", "gain%")
	for i, pt := range blocking.Points {
		b := pt.Results["nr"].Speedup
		o := overlapped.Points[i].Results["nr"].Speedup
		fmt.Fprintf(out, "%8d %12.2f %12.2f %+7.1f%%\n", pt.Value, b, o, (o-b)/b*100)
	}
	fmt.Fprintln(out)
}
