package exec

import (
	"fmt"
	"sort"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
)

// This file is the measured counterpart of internal/simnet's event
// timeline: a per-rank tracer that records wall-clock spans for each
// tile's receive/unpack, compute and pack/send phases in the real
// runtime. Measured events use the simnet.Event schema (seconds since the
// run's epoch), so the simulator's Gantt, critical-rank and phase-fraction
// analytics apply unchanged to real traces — which is exactly what lets
// the cost model be validated against measurement.

// RankMetrics aggregates one rank's measured runtime behaviour over its
// whole tile chain. Durations partition the rank's span: Wait (blocked in
// Recv), Unpack (receive-phase work outside the blocking wait, i.e. LDS
// unpack plus boundary Initial injection), Compute (kernel sweep incl.
// injected PointDelay), Send (pack + send issue), Drain (end-of-chain
// WaitSends on in-flight Isends).
type RankMetrics struct {
	Rank  int
	Tiles int

	Wait    time.Duration
	Unpack  time.Duration
	Compute time.Duration
	Send    time.Duration
	Drain   time.Duration
	// Span is first tile start → drain end (excludes the final global
	// write-back, which is outside the §3.2 protocol).
	Span time.Duration

	MsgsRecvd   int
	ValuesRecvd int
	MsgsSent    int
	ValuesSent  int
	// Queued totals the time received messages sat delivered-but-unclaimed
	// in the mailbox: high values mean this rank, not the network, is the
	// bottleneck on its inbound edges.
	Queued time.Duration

	// Buffer-pool effectiveness and the overlap depth actually reached.
	PoolHits    int
	PoolMisses  int
	PendingPeak int

	// Crashes counts injected crashes this rank survived (restarting from
	// a checkpoint).
	Crashes int

	// Workers is always 1: a rank computes its tiles itself.
	//
	// Deprecated: the executor has no intra-tile worker pool.
	Workers int
}

// Tracer collects per-rank measured timelines from one RunParallelOpts
// run; attach it via RunOptions.Trace. Each rank records into private
// state during the run and publishes once at chain end, so tracing adds
// two time.Now calls per phase and no cross-rank synchronization to the
// steady state. A Tracer may be reused across runs; each run resets it.
type Tracer struct {
	epoch  time.Time
	events chan []simnet.Event
	ranks  []RankMetrics

	collected []simnet.Event
	drained   bool
}

// NewTracer returns an empty tracer ready to attach to RunOptions.Trace.
func NewTracer() *Tracer { return &Tracer{} }

// reset prepares the tracer for a run over the given number of ranks.
func (tr *Tracer) reset(ranks int) {
	tr.epoch = time.Now()
	tr.events = make(chan []simnet.Event, ranks)
	tr.ranks = make([]RankMetrics, ranks)
	tr.collected = nil
	tr.drained = false
}

// drain gathers the per-rank event batches published at chain end. Called
// after World.RunE returns, so every rank has either flushed or died.
func (tr *Tracer) drain() {
	if tr.drained {
		return
	}
	tr.drained = true
	for {
		select {
		case evs := <-tr.events:
			tr.collected = append(tr.collected, evs...)
		default:
			sort.Slice(tr.collected, func(i, j int) bool {
				if tr.collected[i].Rank != tr.collected[j].Rank {
					return tr.collected[i].Rank < tr.collected[j].Rank
				}
				return tr.collected[i].Start < tr.collected[j].Start
			})
			return
		}
	}
}

// PerRank returns the per-rank aggregate metrics of the last run.
func (tr *Tracer) PerRank() []RankMetrics { return tr.ranks }

// Trace assembles the measured timeline as a simnet.Trace, making every
// simulator analytic (Gantt, CriticalRank, PhaseFractions, Summary,
// TraceEventJSON) available over real measurements. Result fields that
// only the simulator knows (SeqTime, Speedup, Points, Steps) are zero.
func (tr *Tracer) Trace() *simnet.Trace {
	tr.drain()
	res := &simnet.Result{Procs: len(tr.ranks)}
	var compute float64
	for _, m := range tr.ranks {
		res.Tiles += int64(m.Tiles)
		res.Messages += int64(m.MsgsRecvd)
		res.BytesSent += int64(m.ValuesRecvd) * 8
		compute += m.Compute.Seconds()
	}
	for _, e := range tr.collected {
		if e.End > res.Makespan {
			res.Makespan = e.End
		}
	}
	if res.Makespan > 0 && res.Procs > 0 {
		res.Utilization = compute / (float64(res.Procs) * res.Makespan)
	}
	return &simnet.Trace{Result: res, Events: tr.collected}
}

// rankTracer is one rank's private recording state; it touches no shared
// memory until the single flush at chain end.
type rankTracer struct {
	tr   *Tracer
	rank int

	events []simnet.Event
	m      RankMetrics

	first     time.Time
	tileStart time.Time
	recvDone  time.Time
	compDone  time.Time
	lastEnd   time.Time
	wait      time.Duration // blocking receive wait within the current tile
}

func newRankTracer(tr *Tracer, rank int) *rankTracer {
	return &rankTracer{tr: tr, rank: rank, m: RankMetrics{Rank: rank}}
}

func (rt *rankTracer) sec(t time.Time) float64 { return t.Sub(rt.tr.epoch).Seconds() }

func (rt *rankTracer) beginTile() {
	rt.tileStart = time.Now()
	if rt.first.IsZero() {
		rt.first = rt.tileStart
	}
	rt.wait = 0
}

// noteRecv records one received message: how long the rank blocked for it
// and how long it had been sitting delivered before the rank asked.
func (rt *rankTracer) noteRecv(wait, queued time.Duration, values int) {
	rt.wait += wait
	if queued > 0 {
		rt.m.Queued += queued
	}
	rt.m.MsgsRecvd++
	rt.m.ValuesRecvd += values
}

func (rt *rankTracer) noteSend(values, pending int) {
	rt.m.MsgsSent++
	rt.m.ValuesSent += values
	if pending > rt.m.PendingPeak {
		rt.m.PendingPeak = pending
	}
}

func (rt *rankTracer) noteRecvDone() { rt.recvDone = time.Now() }
func (rt *rankTracer) noteCompDone() { rt.compDone = time.Now() }

// noteFault records a fault marker (kind "crash" or "restart") at the
// given chain slot: an instant event (all timestamps equal) that the
// Gantt paints as '!' and the Chrome export emits as an instant, without
// disturbing the phase-fraction analytics.
func (rt *rankTracer) noteFault(kind string, slot int64) {
	s := rt.sec(time.Now())
	ev := simnet.Event{
		Rank: rt.rank, Tile: fmt.Sprintf("slot=%d", slot), Kind: kind,
		Start: s, RecvDone: s, CompDone: s, End: s,
	}
	rt.events = append(rt.events, ev)
	if kind == "crash" {
		rt.m.Crashes++
	}
}

func (rt *rankTracer) endTile(tile ilin.Vec) {
	now := time.Now()
	unpack := rt.recvDone.Sub(rt.tileStart) - rt.wait
	if unpack < 0 {
		unpack = 0
	}
	rt.m.Wait += rt.wait
	rt.m.Unpack += unpack
	rt.m.Compute += rt.compDone.Sub(rt.recvDone)
	rt.m.Send += now.Sub(rt.compDone)
	rt.m.Tiles++
	ev := simnet.Event{
		Rank:     rt.rank,
		Tile:     tile.String(),
		Start:    rt.sec(rt.tileStart),
		RecvDone: rt.sec(rt.recvDone),
		CompDone: rt.sec(rt.compDone),
		End:      rt.sec(now),
		Waited:   rt.wait.Seconds(),
	}
	rt.events = append(rt.events, ev)
	rt.lastEnd = now
}

// finish closes the rank's timeline after the end-of-chain WaitSends and
// publishes events and metrics to the shared tracer.
func (rt *rankTracer) finish(pool *bufPool) {
	now := time.Now()
	if !rt.lastEnd.IsZero() {
		rt.m.Drain = now.Sub(rt.lastEnd)
	}
	if !rt.first.IsZero() {
		rt.m.Span = now.Sub(rt.first)
	}
	rt.m.PoolHits = pool.hits
	rt.m.PoolMisses = pool.misses
	rt.m.Workers = 1
	if rt.rank < len(rt.tr.ranks) {
		rt.tr.ranks[rt.rank] = rt.m
	}
	rt.tr.events <- rt.events
}
