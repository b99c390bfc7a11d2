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
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
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

// CriticalRank returns the rank that finishes last and its idle fraction —
// where tuning effort should go.
func (tr *Trace) CriticalRank() (rank int, idleFrac float64) {
	var lastEnd float64
	byRank := map[int]struct{ end, waited float64 }{}
	for _, e := range tr.Events {
		s := byRank[e.Rank]
		if e.End > s.end {
			s.end = e.End
		}
		s.waited += e.Waited
		byRank[e.Rank] = s
		if e.End > lastEnd {
			lastEnd, rank = e.End, e.Rank
		}
	}
	if s, ok := byRank[rank]; ok && s.end > 0 {
		idleFrac = s.waited / s.end
	}
	return rank, idleFrac
}

// PhaseSplit is one rank's share of the makespan by phase, all expressed
// as fractions of Makespan: Wait (blocked on receives), Recv (unpack work
// outside the wait), Compute, Send, and Idle (the remainder — pipeline
// fill before the first tile and drain after the last).
type PhaseSplit struct {
	Rank    int
	Wait    float64
	Recv    float64
	Compute float64
	Send    float64
	Idle    float64
}

// PhaseFractions splits each rank's timeline into phase fractions of the
// makespan. It works identically for simulated and measured traces, which
// is what makes the cost model directly comparable to the real runtime.
func (tr *Trace) PhaseFractions() []PhaseSplit {
	mk := 0.0
	if tr.Result != nil {
		mk = tr.Result.Makespan
	}
	maxRank := 0
	for _, e := range tr.Events {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
		if e.End > mk {
			mk = e.End
		}
	}
	out := make([]PhaseSplit, maxRank+1)
	for r := range out {
		out[r].Rank = r
	}
	if mk <= 0 {
		return out
	}
	for _, e := range tr.Events {
		s := &out[e.Rank]
		s.Wait += e.Waited / mk
		if un := (e.RecvDone - e.Start - e.Waited) / mk; un > 0 {
			s.Recv += un
		}
		s.Compute += (e.CompDone - e.RecvDone) / mk
		s.Send += (e.End - e.CompDone) / mk
	}
	for r := range out {
		s := &out[r]
		if idle := 1 - s.Wait - s.Recv - s.Compute - s.Send; idle > 0 {
			s.Idle = idle
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
