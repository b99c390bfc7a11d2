package simnet

import (
	"encoding/json"
	"strings"
	"testing"

	"tilespace/internal/distrib"
)

// SimulateFaultsTraced is SimulateFaults recording one Event per tile
// plus crash/restart instants (Event.Kind).
func SimulateFaultsTraced(d *distrib.Distribution, par Params, fm FaultModel) (*Trace, error) {
	tr := &Trace{}
	res, err := simulateFaults(d, par, fm.normalize(), func(e Event) {
		tr.Events = append(tr.Events, e)
	})
	if err != nil {
		return nil, err
	}
	tr.Result = res
	return tr, nil
}

// ganttRow extracts the cells of one rank's row from a Gantt rendering.
func ganttRow(t *testing.T, g string, rank int) string {
	t.Helper()
	for _, line := range strings.Split(g, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "rank") {
			i := strings.IndexByte(line, '|')
			j := strings.LastIndexByte(line, '|')
			if i < 0 || j <= i {
				t.Fatalf("malformed gantt row %q", line)
			}
			if rank == 0 {
				return line[i+1 : j]
			}
			rank--
		}
	}
	t.Fatalf("rank row not found in:\n%s", g)
	return ""
}

// The event that defines the makespan ends exactly at Makespan; its send
// segment must paint through the final cell, not stop one short.
func TestGanttPaintsFinalCell(t *testing.T) {
	tr := &Trace{
		Result: &Result{Makespan: 1.0},
		Events: []Event{{Rank: 0, Tile: "[0]", Start: 0, RecvDone: 0.25, CompDone: 0.5, End: 1.0}},
	}
	row := ganttRow(t, tr.Gantt(20), 0)
	if got := row[len(row)-1]; got != 's' {
		t.Fatalf("final cell = %q, want 's' (row %q)", got, row)
	}
	if strings.ContainsRune(row, '.') {
		t.Errorf("full-span event left idle cells: %q", row)
	}
}

// A zero-duration event (all four timestamps equal) must still render one
// cell rather than disappear or index out of range — including when it
// sits exactly at the makespan boundary.
func TestGanttZeroDurationEvent(t *testing.T) {
	tr := &Trace{
		Result: &Result{Makespan: 1.0},
		Events: []Event{
			{Rank: 0, Tile: "[0]", Start: 0.5, RecvDone: 0.5, CompDone: 0.5, End: 0.5},
			{Rank: 1, Tile: "[1]", Start: 1.0, RecvDone: 1.0, CompDone: 1.0, End: 1.0},
		},
	}
	g := tr.Gantt(10)
	if row := ganttRow(t, g, 0); strings.Count(row, ".") != len(row)-1 {
		t.Errorf("zero-duration event should paint exactly one cell, got %q", row)
	}
	if row := ganttRow(t, g, 1); row[len(row)-1] == '.' {
		t.Errorf("zero-duration event at makespan should paint the last cell, got %q", row)
	}
}

// Defensive: an event that (incorrectly) ends past Makespan must clamp,
// not panic or index out of range.
func TestGanttEventPastMakespan(t *testing.T) {
	tr := &Trace{
		Result: &Result{Makespan: 1.0},
		Events: []Event{{Rank: 0, Tile: "[0]", Start: 0.9, RecvDone: 1.1, CompDone: 1.2, End: 1.3}},
	}
	if g := tr.Gantt(10); !strings.Contains(g, "rank") {
		t.Fatalf("unexpected rendering: %q", g)
	}
}

func TestPhaseFractions(t *testing.T) {
	tr := &Trace{
		Result: &Result{Makespan: 1.0},
		Events: []Event{
			{Rank: 0, Tile: "[0]", Start: 0, RecvDone: 0.3, CompDone: 0.8, End: 0.9, Waited: 0.2},
		},
	}
	fr := tr.PhaseFractions()
	if len(fr) != 1 {
		t.Fatalf("got %d splits", len(fr))
	}
	s := fr[0]
	approx := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if !approx(s.Wait, 0.2) || !approx(s.Recv, 0.1) || !approx(s.Compute, 0.5) ||
		!approx(s.Send, 0.1) || !approx(s.Idle, 0.1) {
		t.Fatalf("split %+v", s)
	}
	c, w := tr.ComputeWaitFractions()
	if !approx(c, 0.5) || !approx(w, 0.3) {
		t.Fatalf("compute=%v wait=%v", c, w)
	}
}

func TestTraceEventJSONRoundTrip(t *testing.T) {
	tr := &Trace{
		Result: &Result{Makespan: 1.0, Procs: 2},
		Events: []Event{
			{Rank: 0, Tile: "[0]", Start: 0, RecvDone: 0.25, CompDone: 0.75, End: 1.0, Waited: 0.1},
			{Rank: 1, Tile: "[1]", Start: 0.25, RecvDone: 0.25, CompDone: 0.9, End: 1.0},
		},
	}
	js, err := tr.TraceEventJSON()
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Ts    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			Tid   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &f); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, js)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var names, xs int
	for _, e := range f.TraceEvents {
		switch e.Phase {
		case "M":
			names++
		case "X":
			xs++
			if e.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", e.Name, e.Dur)
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	// Two thread_name records; rank 0 has 3 phases, rank 1 has 2 (its recv
	// is zero-length and skipped).
	if names != 2 || xs != 5 {
		t.Fatalf("names=%d xs=%d, want 2 and 5", names, xs)
	}
}
