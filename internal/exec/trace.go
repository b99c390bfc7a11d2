package exec

import (
	"fmt"
	"math"
	"slices"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
)

// This file is the measured counterpart of internal/simnet's timeline: a
// per-rank tracer of each tile's receive/unpack, compute and pack/send
// spans, as simnet.Events (seconds since the run's epoch), so the
// simulator's analytics apply to real traces and validate the cost model.

// RankMetrics is one rank's measured runtime behaviour over its whole tile
// chain, folded from its tile events (simnet.Trace.Phases). Durations
// partition the rank's span: Wait (parked on a receive: the time its group
// spent on sibling ranks, or waiting, while this one waited), Unpack (LDS
// unpack plus boundary Initial injection), Compute (kernel sweep incl.
// injected PointDelay), Send (pack + send issue, incl. a blocking send's
// wire cost), Drain (the chain's end, until its last send is due) — except
// for the time between two of its tiles, when the rank's group steps its
// siblings, quiesces for a snapshot or sits out a crash's restart. Its
// message and value counts are the runtime's (mpi.Stats.PerRank).
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

	// Queued totals the time received messages sat delivered-but-unclaimed
	// in the mailbox: high values mean this rank, not the network, is the
	// bottleneck on its inbound edges.
	Queued time.Duration

	// Deprecated: always 0; a rank packs into one send array, so there is
	// no buffer pool.
	PoolHits, PoolMisses int
	// PendingPeak is the overlap depth actually reached: the most sends of
	// the rank not yet due right after it issued one.
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
// synchronization. Its events are the run's one record; the metrics are
// folded from them. A Tracer may be reused across runs; each run resets it.
type Tracer struct {
	epoch  time.Time
	events [][]simnet.Event // per rank, in time order
	ranks  []RankMetrics    // per rank, what no event carries: Queued and PendingPeak
	ends   []time.Duration  // per rank, when its chain ended (since epoch)

	collected []simnet.Event
}

// NewTracer returns an empty tracer ready to attach to RunOptions.Trace.
func NewTracer() *Tracer { return &Tracer{} }

// reset prepares the tracer for a run over the given number of ranks.
func (tr *Tracer) reset(ranks int) {
	tr.epoch = time.Now()
	tr.events = make([][]simnet.Event, ranks)
	tr.ranks = make([]RankMetrics, ranks)
	tr.ends = make([]time.Duration, ranks)
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

// PerRank returns the per-rank metrics of the last run, folded from its
// events: Drain and Span run to the chain's end.
func (tr *Tracer) PerRank() []RankMetrics {
	out := slices.Clone(tr.ranks)
	for r, f := range tr.Trace().Phases(len(out)) {
		m := &out[r]
		m.Rank, m.Tiles, m.Crashes, m.Workers = r, f.Tiles, f.Crashes, 1
		m.Wait, m.Unpack, m.Compute, m.Send = seconds(f.Wait), seconds(f.Recv), seconds(f.Compute), seconds(f.Send)
		if f.Tiles > 0 {
			m.Drain, m.Span = tr.ends[r]-seconds(f.Last), tr.ends[r]-seconds(f.First)
		}
	}
	return out
}

// seconds converts seconds to the nearest time.Duration.
func seconds(s float64) time.Duration { return time.Duration(math.Round(s * float64(time.Second))) }

// Trace assembles the measured timeline as a simnet.Trace, making every
// simulator analytic (Gantt, CriticalRank, PhaseFractions, Summary,
// TraceEventJSON) available over real measurements. Its Result holds the
// tiles, makespan and compute utilization; the fields that only the
// simulator knows (SeqTime, Speedup, Points, Steps) and the message counts
// (mpi.Stats) are zero.
func (tr *Tracer) Trace() *simnet.Trace {
	tr.drain()
	t := &simnet.Trace{Result: &simnet.Result{Procs: len(tr.ranks)}, Events: tr.collected}
	res, compute := t.Result, 0.0
	for _, f := range t.Phases(res.Procs) {
		res.Tiles += int64(f.Tiles)
		res.Makespan = max(res.Makespan, f.Last)
		compute += f.Compute
	}
	if res.Makespan > 0 {
		res.Utilization = compute / (float64(res.Procs) * res.Makespan)
	}
	return t
}

// rankTracer is one rank's private recording state; it touches no shared
// memory until the single flush at chain end. It keeps the current tile's
// timestamps and wait, and the facts no event carries: the queued time,
// the sends not yet due (for the pending peak), and the chain's end.
type rankTracer struct {
	tr   *Tracer
	rank int

	events []simnet.Event
	m      RankMetrics // Queued and PendingPeak
	dues   []time.Time // the due times of the rank's sends not yet due

	tileStart time.Time
	recvDone  time.Time
	compDone  time.Time
	parked    time.Time     // when the rank's group last left it waiting; zero when it is not
	wait      time.Duration // receive wait within the current tile
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
	rt.wait = 0
}

// park notes that the rank's group leaves its tile waiting for a row.
func (rt *rankTracer) park(now time.Time) { rt.parked = now }

// noteRecv records one message claimed at now (a receive never blocks:
// the rank's wait is the time its group left it parked) and how long it had
// been sitting delivered (zero delivered: handed over by a sibling, never
// queued in a mailbox).
func (rt *rankTracer) noteRecv(delivered, now time.Time) {
	if queued := now.Sub(delivered); !delivered.IsZero() && queued > 0 {
		rt.m.Queued += queued
	}
}

// noteSend records a send issued now and due at due (zero: handed to a
// sibling), and how many of the rank's sends are not yet due.
func (rt *rankTracer) noteSend(due time.Time) {
	now := time.Now()
	rt.dues = slices.DeleteFunc(rt.dues, func(d time.Time) bool { return !d.After(now) })
	if due.After(now) {
		rt.dues = append(rt.dues, due)
	}
	rt.m.PendingPeak = max(rt.m.PendingPeak, len(rt.dues))
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
}

// endTile closes the current tile and returns when it ended.
func (rt *rankTracer) endTile(tile ilin.Vec) time.Time {
	now := time.Now()
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
	return now
}

// finish closes the rank's timeline once its last send is due and
// publishes events and metrics to the shared tracer, returning when.
func (rt *rankTracer) finish() time.Time {
	now := time.Now()
	rt.tr.ranks[rt.rank] = rt.m
	rt.tr.ends[rt.rank] = now.Sub(rt.tr.epoch)
	rt.tr.events[rt.rank] = rt.events
	return now
}
