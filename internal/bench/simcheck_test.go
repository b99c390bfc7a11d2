package bench

import (
	"encoding/json"
	"sync"
	"testing"
)

// simCheckOnce runs RunSimCheck at most once per test binary: the phase
// test and the fault test read the same six rows, so the suite measures the
// experiment once however many of them run.
var simCheckOnce = sync.OnceValues(RunSimCheck)

// simCheck returns the shared experiment after checking the tolerances and
// the row layout every acceptance test relies on: fault-free SOR on the
// 16-rank configuration first, six rows in all. Wall-clock heavy (injected
// costs), so it skips under -short.
func simCheck(t *testing.T) *SimCheck {
	t.Helper()
	if testing.Short() {
		t.Skip("measured comparison needs injected real-time costs")
	}
	if PhaseTolerance != 0.15 || FaultTolerance != 0.30 {
		t.Fatalf("tolerances %.2f / %.2f, want the documented 0.15 / 0.30", PhaseTolerance, FaultTolerance)
	}
	c, err := simCheckOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 6 {
		t.Fatalf("rows = %d, want SOR, Jacobi, ADI and the 3 SOR scenarios", len(c.Rows))
	}
	sor := c.Rows[0]
	if sor.App != "SOR" || sor.Baseline != nil || sor.Procs != 16 {
		t.Fatalf("first row %s %q on %d ranks, want fault-free SOR on the 16-rank acceptance configuration", sor.App, sor.Scenario, sor.Procs)
	}
	return c
}

// TestTraceExperimentValidatesCostModel is the acceptance check of the
// tracing layer: the measured fault-free 16-rank SOR run (plus Jacobi and
// ADI) must agree with simnet.SimulateTraced's phase fractions within
// PhaseTolerance, and the measured trace must export valid Chrome
// trace_event JSON.
func TestTraceExperimentValidatesCostModel(t *testing.T) {
	c := simCheck(t)
	sor := c.Rows[0]
	faultFree := 0
	for _, r := range c.Rows {
		if r.Baseline != nil {
			continue
		}
		faultFree++
		t.Logf("%s: compute meas %.3f sim %.3f, wait meas %.3f sim %.3f",
			r.App, r.MeasuredCompute, r.SimCompute, r.MeasuredWait, r.SimWait)
		if r.ComputeErr() > PhaseTolerance {
			t.Errorf("%s compute fraction diverged: measured %.3f vs sim %.3f", r.App, r.MeasuredCompute, r.SimCompute)
		}
		if r.WaitErr() > PhaseTolerance {
			t.Errorf("%s wait fraction diverged: measured %.3f vs sim %.3f", r.App, r.MeasuredWait, r.SimWait)
		}
		if int64(len(r.Trace.Events)) != r.Tiles {
			t.Errorf("%s: %d measured events for %d tiles", r.App, len(r.Trace.Events), r.Tiles)
		}
	}
	if faultFree != 3 {
		t.Fatalf("%d fault-free rows, want SOR, Jacobi and ADI", faultFree)
	}

	js, err := sor.Trace.TraceEventJSON()
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Tid   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &f); err != nil {
		t.Fatalf("invalid trace_event JSON: %v", err)
	}
	ranks := map[int]bool{}
	for _, ev := range f.TraceEvents {
		ranks[ev.Tid] = true
	}
	if len(ranks) != 16 {
		t.Errorf("trace JSON covers %d ranks, want 16", len(ranks))
	}
}

// TestFaultModelValidatesSimnet is the acceptance check of the fault
// layer: SOR under every fault scenario must degrade over the SOR
// fault-free row as simnet.SimulateTraced predicts within FaultTolerance,
// and the crash-restart trace must carry the fault markers.
func TestFaultModelValidatesSimnet(t *testing.T) {
	c := simCheck(t)
	sor := c.Rows[0]
	var crashRow *SimCheckRow
	scenarios := 0
	for _, r := range c.Rows {
		if r.Baseline == nil {
			continue
		}
		// The scenarios run on the SOR plan, and each one's baseline is the
		// SOR fault-free row's measured makespan: one baseline, not a
		// second set of fault-free runs.
		if r.Baseline != sor || r.App != "SOR" || r.Procs != 16 {
			t.Fatalf("%s %s on %d ranks, baseline %p: want the 16-rank SOR plan against the SOR row %p", r.App, r.Scenario, r.Procs, r.Baseline, sor)
		}
		scenarios++
		m, p := r.Degradation()
		if want := float64(r.MeasuredMakespan) / float64(sor.MeasuredMakespan); m != want {
			t.Errorf("%s: measured degradation %.4fx, want makespan over the SOR row's, %.4fx", r.Scenario, m, want)
		}
		t.Logf("%s: measured %.2fx predicted %.2fx (err %.1f%%)", r.Scenario, m, p, r.DegradationErr()*100)
		if p <= 1 {
			t.Errorf("%s: predicted degradation %.3fx not above 1 — scenario injects nothing", r.Scenario, p)
		}
		if r.DegradationErr() > FaultTolerance {
			t.Errorf("%s: degradation diverged: measured %.2fx vs predicted %.2fx", r.Scenario, m, p)
		}
		if r.Scenario == "crash-restart" {
			crashRow = r
		}
	}
	if scenarios != 3 || crashRow == nil {
		t.Fatalf("%d scenario rows (crash-restart among them: %v), want straggler, slow-link and crash-restart", scenarios, crashRow != nil)
	}
	var crash, restart int
	for _, ev := range crashRow.Trace.Events {
		switch ev.Kind {
		case "crash":
			crash++
		case "restart":
			restart++
		}
	}
	if crash != 1 || restart != 1 {
		t.Errorf("crash-restart trace has %d crash / %d restart markers, want 1 / 1", crash, restart)
	}
	var crashes int
	for _, m := range crashRow.Metrics {
		crashes += m.Crashes
	}
	if crashes != 1 {
		t.Errorf("RankMetrics count %d crashes, want 1", crashes)
	}
}
