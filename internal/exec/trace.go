package exec

import (
	"fmt"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
)

// This file is the measured counterpart of internal/simnet's timeline: a
// per-rank tracer of each tile's receive/unpack, compute and pack/send
// spans, as simnet.Events (seconds since the run's epoch), so the
// simulator's analytics apply to real traces and validate the cost model.

// RankMetrics aggregates one rank's measured runtime behaviour over its
// whole tile chain. Durations partition the rank's span: Wait (parked on a
// receive: the time its group spent on sibling ranks, or waiting, while
// this one waited), Unpack (LDS unpack plus boundary Initial injection),
// Compute (kernel sweep incl. injected PointDelay), Send (pack + send issue,
// incl. a blocking send's wire cost), Drain (the chain's end, until its
// last send is due).
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

	// Deprecated: always 0; a rank packs into one send array, so there is
	// no buffer pool.
	PoolHits, PoolMisses int
	// PendingPeak is the overlap depth actually reached.
	PendingPeak int

	// Crashes counts injected crashes this rank survived (restarting from
	// a checkpoint).
	Crashes int

	// Deprecated: always 1; a rank computes its tiles itself.
	Workers int
}

// Tracer collects per-rank measured timelines from one RunParallelOpts
// run (RunOptions.Trace). Each rank records privately and publishes once at
// chain end: a few time.Now calls per phase and no cross-rank
// synchronization. A Tracer may be reused across runs; each run resets it.
type Tracer struct {
	epoch  time.Time
	events [][]simnet.Event // per rank, in time order
	ranks  []RankMetrics

	collected []simnet.Event
}

// NewTracer returns an empty tracer ready to attach to RunOptions.Trace.
func NewTracer() *Tracer { return &Tracer{} }

// reset prepares the tracer for a run over the given number of ranks.
func (tr *Tracer) reset(ranks int) {
	tr.epoch = time.Now()
	tr.events = make([][]simnet.Event, ranks)
	tr.ranks = make([]RankMetrics, ranks)
	tr.collected = nil
}

// drain gathers the per-rank event batches published at chain end, ordered
// by rank, then start. Called after World.RunGroups returns, so every rank
// has either flushed or died.
func (tr *Tracer) drain() {
	for _, evs := range tr.events {
		tr.collected = append(tr.collected, evs...)
	}
	tr.events = nil
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
	parked    time.Time     // when the rank's group last left it waiting; zero when it is not
	wait      time.Duration // receive wait within the current tile
}

func newRankTracer(tr *Tracer, rank int) *rankTracer {
	return &rankTracer{tr: tr, rank: rank, m: RankMetrics{Rank: rank}}
}

func (rt *rankTracer) sec(t time.Time) float64 { return t.Sub(rt.tr.epoch).Seconds() }

// beginTile opens the current slot's tile at now, or, when the group left
// the tile waiting (park), resumes it: the time since — the group's on
// sibling ranks, or waiting — is the rank's wait.
func (rt *rankTracer) beginTile(now time.Time) {
	if !rt.parked.IsZero() {
		rt.wait += now.Sub(rt.parked)
		rt.parked = time.Time{}
		return
	}
	rt.tileStart = now
	if rt.first.IsZero() {
		rt.first = now
	}
	rt.wait = 0
}

// park notes that the rank's group leaves its tile waiting for a row.
func (rt *rankTracer) park(now time.Time) { rt.parked = now }

// noteRecv records one message claimed at now (a receive never blocks:
// the rank's wait is the time its group left it parked) and how long it had
// been sitting delivered (zero delivered: handed over by a sibling, never
// queued in a mailbox).
func (rt *rankTracer) noteRecv(delivered, now time.Time, values int) {
	if queued := now.Sub(delivered); !delivered.IsZero() && queued > 0 {
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

// noteCompDone ends the compute phase cost past now: its modelled cost,
// which the rank is busy for before it sends.
func (rt *rankTracer) noteCompDone(cost time.Duration) { rt.compDone = time.Now().Add(cost) }

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

// endTile closes the current tile and returns when it ended.
func (rt *rankTracer) endTile(tile ilin.Vec) time.Time {
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
	return now
}

// finish closes the rank's timeline once its last send is due and
// publishes events and metrics to the shared tracer, returning when.
func (rt *rankTracer) finish() time.Time {
	now := time.Now()
	if !rt.lastEnd.IsZero() {
		rt.m.Drain = now.Sub(rt.lastEnd)
	}
	if !rt.first.IsZero() {
		rt.m.Span = now.Sub(rt.first)
	}
	rt.m.Workers = 1
	rt.tr.ranks[rt.rank] = rt.m
	rt.tr.events[rt.rank] = rt.events
	return now
}
