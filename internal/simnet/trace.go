package simnet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tilespace/internal/distrib"
)

// Event is one tile's simulated execution record.
type Event struct {
	Rank     int
	Tile     string
	Start    float64 // when the processor turned to this tile
	RecvDone float64 // after waits + unpack
	CompDone float64 // after the kernel sweep
	End      float64 // after sends
	Waited   float64 // idle time spent blocked on receives
	// Kind distinguishes fault markers from tile records: "" is a normal
	// tile, "crash" and "restart" are instants injected by the fault layer
	// (simulated or measured). Fault events carry the chain slot in Tile
	// and equal Start/End.
	Kind string
}

// Trace is the per-tile timeline of a simulated run.
type Trace struct {
	Result *Result
	Events []Event
}

// SimulateTraced runs Simulate while recording one event per tile.
func SimulateTraced(d *distrib.Distribution, par Params) (*Trace, error) {
	tr := &Trace{}
	res, err := simulate(d, par, func(e Event) {
		tr.Events = append(tr.Events, e)
	})
	if err != nil {
		return nil, err
	}
	tr.Result = res
	return tr, nil
}

// Gantt renders a fixed-width text timeline, one row per processor:
// '.' idle, 'r' receiving/waiting, 'C' computing, 's' sending. Useful for
// seeing the pipeline fill/drain difference between tile shapes.
func (tr *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	if len(tr.Events) == 0 {
		return "(empty trace)\n"
	}
	makespan := tr.Result.Makespan
	if makespan <= 0 {
		return "(zero makespan)\n"
	}
	ranks := map[int][]Event{}
	maxRank := 0
	for _, e := range tr.Events {
		ranks[e.Rank] = append(ranks[e.Rank], e)
		maxRank = max(maxRank, e.Rank)
	}
	// Segment starts floor into [0, width-1]; segment ends ceil into
	// [0, width], so an event ending exactly at Makespan paints the last
	// cell instead of stopping one short (paint's bounds check keeps an
	// end column of width in range).
	col := func(t float64) int {
		c := int(t / makespan * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	colEnd := func(t float64) int {
		c := int(math.Ceil(t / makespan * float64(width)))
		if c > width {
			c = width
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gantt (%d cols = %.4fs, '.' idle  r recv  C compute  s send  ! fault)\n", width, makespan)
	for r := 0; r <= maxRank; r++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		evs := ranks[r]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for _, e := range evs {
			if e.Kind != "" {
				continue // fault markers paint after the phases, below
			}
			paint(row, col(e.Start), colEnd(e.RecvDone), 'r')
			paint(row, col(e.RecvDone), colEnd(e.CompDone), 'C')
			paint(row, col(e.CompDone), colEnd(e.End), 's')
		}
		for _, e := range evs {
			if e.Kind != "" {
				row[col(e.Start)] = '!'
			}
		}
		fmt.Fprintf(&b, "rank %3d |%s|\n", r, row)
	}
	return b.String()
}

func paint(row []byte, from, to int, c byte) {
	if to <= from {
		to = from + 1
	}
	for i := from; i < to && i < len(row); i++ {
		row[i] = c
	}
}

// RankPhases is one rank's tile events folded (Trace.Phases).
type RankPhases struct {
	Wait, Recv, Compute, Send float64 // seconds, summed over the rank's tiles
	Tiles, Crashes            int
	First, Last               float64 // when its first tile started and its last one ended
}

// Phases folds the events into one RankPhases per rank, for ranks 0 up to
// the highest an event names and at least procs: the one definition of a
// tile's phases, for simulated and measured traces alike. Wait is Waited,
// Recv the unpack work besides (RecvDone − Start − Waited, none when
// negative), Compute runs to CompDone and Send to End. A fault marker is an
// instant: it adds to no phase, and a crash counts in Crashes.
func (tr *Trace) Phases(procs int) []RankPhases {
	for _, e := range tr.Events {
		procs = max(procs, e.Rank+1)
	}
	out := make([]RankPhases, procs)
	for _, e := range tr.Events {
		f := &out[e.Rank]
		if e.Kind == "crash" {
			f.Crashes++
		}
		if e.Kind != "" {
			continue
		}
		if f.Tiles == 0 {
			f.First = e.Start
		}
		f.Tiles++
		f.Last = max(f.Last, e.End)
		f.Wait += e.Waited
		f.Recv += max(e.RecvDone-e.Start-e.Waited, 0)
		f.Compute += e.CompDone - e.RecvDone
		f.Send += e.End - e.CompDone
	}
	return out
}

// CriticalRank returns the rank that finishes last (the lowest of a tie)
// and its idle fraction — where tuning effort should go.
func (tr *Trace) CriticalRank() (rank int, idleFrac float64) {
	ph := tr.Phases(1)
	for r, f := range ph {
		if f.Last > ph[rank].Last {
			rank = r
		}
	}
	if f := ph[rank]; f.Last > 0 {
		idleFrac = f.Wait / f.Last
	}
	return rank, idleFrac
}

// PhaseSplit is one rank's share of the makespan by phase, all expressed
// as fractions of Makespan: Wait (blocked on receives), Recv (unpack work
// outside the wait), Compute, Send, and Idle (the remainder — pipeline
// fill before the first tile and drain after the last).
type PhaseSplit struct {
	Rank                            int
	Wait, Recv, Compute, Send, Idle float64
}

// PhaseFractions is Phases as fractions of the makespan (the Result's, or
// the last tile's end if later). It works identically for simulated and
// measured traces, which is what makes the cost model directly comparable
// to the real runtime.
func (tr *Trace) PhaseFractions() []PhaseSplit {
	ph := tr.Phases(0)
	mk := 0.0
	if tr.Result != nil {
		mk = tr.Result.Makespan
	}
	for _, f := range ph {
		mk = max(mk, f.Last)
	}
	out := make([]PhaseSplit, len(ph))
	for r, f := range ph {
		out[r].Rank = r
		if mk > 0 {
			out[r] = PhaseSplit{r, f.Wait / mk, f.Recv / mk, f.Compute / mk, f.Send / mk, max(1-(f.Wait+f.Recv+f.Compute+f.Send)/mk, 0)}
		}
	}
	return out
}

// ComputeWaitFractions reduces PhaseFractions to the two headline numbers
// of the measured-vs-simulated comparison: the machine-wide fraction of
// processor-time spent computing, and the fraction spent stalled
// (receive-wait plus idle fill/drain).
func (tr *Trace) ComputeWaitFractions() (compute, wait float64) {
	fr := tr.PhaseFractions()
	if len(fr) == 0 {
		return 0, 0
	}
	for _, s := range fr {
		compute += s.Compute
		wait += s.Wait + s.Idle
	}
	n := float64(len(fr))
	return compute / n, wait / n
}
