package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
)

// runTraced runs the planProgram fixture with a tracer attached and
// returns the tracer plus the run's Stats.
func runTraced(t *testing.T, opt RunOptions) (*Tracer, mpi.Stats) {
	t.Helper()
	p := planProgram(t)
	tr := NewTracer()
	opt.Trace = tr
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	g, st, err := p.RunParallelOpts(opt)
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := seq.MaxAbsDiff(g, p.ScanSpace); diff != 0 {
		t.Fatalf("traced run differs from sequential by %g at %v", diff, at)
	}
	return tr, st
}

// TestTracerRecordsTimeline: both send modes must produce one
// event per tile, per-rank metrics that count every tile, runtime traffic
// that claims each rank's inbound-table rows once, and a timeline the
// shared simnet analytics can digest.
func TestTracerRecordsTimeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  RunOptions
	}{
		{"planned-blocking", RunOptions{}},
		// Without injected wire cost every send is due when issued and
		// nothing is ever pending: a small latency gives PendingPeak
		// something to record.
		{"planned-overlap", RunOptions{Overlap: true, Net: mpi.Options{LinkLatency: 200 * time.Microsecond}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, st := runTraced(t, tc.opt)
			trace := tr.Trace()
			if trace.Result.Tiles == 0 || int64(len(trace.Events)) != trace.Result.Tiles {
				t.Fatalf("%d events for %d tiles", len(trace.Events), trace.Result.Tiles)
			}
			if trace.Result.Makespan <= 0 {
				t.Fatalf("makespan %v", trace.Result.Makespan)
			}
			var tiles int
			for _, m := range tr.PerRank() {
				tiles += m.Tiles
				if m.Tiles > 0 && m.Span <= 0 {
					t.Errorf("rank %d: %d tiles but span %v", m.Rank, m.Tiles, m.Span)
				}
				if m.Compute < 0 || m.Wait < 0 || m.Unpack < 0 || m.Send < 0 || m.Drain < 0 {
					t.Errorf("rank %d: negative phase in %+v", m.Rank, m)
				}
			}
			if int64(tiles) != trace.Result.Tiles {
				t.Errorf("metric tiles %d != %d", tiles, trace.Result.Tiles)
			}
			checkInboundTraffic(t, planProgram(t), st)
			if crit, idle := trace.CriticalRank(); crit < 0 || crit >= trace.Result.Procs || idle < 0 || idle > 1 {
				t.Errorf("critical rank %d (%.2f idle) of %d ranks", crit, idle, trace.Result.Procs)
			}
			if tc.opt.Overlap {
				peak := 0
				for _, m := range tr.PerRank() {
					if m.PendingPeak > peak {
						peak = m.PendingPeak
					}
				}
				if peak == 0 {
					t.Error("overlap run recorded no pending-send high-water mark")
				}
			}
			if _, err := trace.TraceEventJSON(); err != nil {
				t.Errorf("trace export: %v", err)
			}
		})
	}
}

// checkInboundTraffic checks the runtime's receive counts against the
// compiled protocol: every rank claims each row of its inbound-message
// table once, with the row's points' values, and the world's totals are
// their sums.
func checkInboundTraffic(t *testing.T, p *Program, st mpi.Stats) {
	t.Helper()
	var msgs, vals int64
	for r, rt := range st.PerRank {
		var want int64
		rows := mustPlan(t, p, r).Msgs
		for _, m := range rows {
			want += m.Count * int64(p.Width)
		}
		if rt.Recvs != int64(len(rows)) || rt.ValuesRecvd != want {
			t.Errorf("rank %d claimed %d messages / %d values, its inbound table has %d rows / %d values", r, rt.Recvs, rt.ValuesRecvd, len(rows), want)
		}
		msgs, vals = msgs+int64(len(rows)), vals+want
	}
	if st.Recvs != msgs || st.ValuesRecvd != vals || st.Messages != msgs || st.Values != vals {
		t.Errorf("stats %+v, the inbound tables hold %d messages / %d values", st, msgs, vals)
	}
}

// TestTracerReuse: attaching the same tracer to a second run must reset
// it, not accumulate the first run's events; the events name every tile
// once.
func TestTracerReuse(t *testing.T) {
	p := planProgram(t)
	tr := NewTracer()
	for i := 0; i < 2; i++ {
		if _, _, err := p.RunParallelOpts(RunOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
	}
	evs := tr.Trace().Events
	if got, want := int64(len(evs)), p.TS.NumTiles(); got != want {
		t.Fatalf("after reuse: %d events, want %d", got, want)
	}
	named := map[string]int{}
	for _, e := range evs {
		named[e.Tile]++
	}
	p.TS.ScanTiles(func(jS ilin.Vec) bool {
		if named[jS.String()] != 1 {
			t.Errorf("tile %v named by %d events", jS, named[jS.String()])
		}
		return true
	})
}

// TestStatsDuringRunRaceFree drives the executor exactly as
// RunParallelOpts does while a second goroutine hammers World.Stats()
// mid-flight, with tracing on: run under -race, any unsynchronized access
// between the per-rank tracers, the mpi counters and the Stats reader
// fails the suite.
func TestStatsDuringRunRaceFree(t *testing.T) {
	p := planProgram(t)
	tr := NewTracer()
	opt := RunOptions{Overlap: true, Trace: tr}
	world := mpi.NewGroupedWorld(p.Dist.NumProcs(), runtime.GOMAXPROCS(0), opt.Net)
	var stop atomic.Bool
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for !stop.Load() {
			st := world.Stats()
			_ = st.Messages + st.Recvs + st.ValuesRecvd
		}
	}()
	_, _, err := p.runOn(world, opt)
	stop.Store(true)
	<-pollDone
	if err != nil {
		t.Fatal(err)
	}
	tr.drain()
	if int64(len(tr.Trace().Events)) != p.TS.NumTiles() {
		t.Fatalf("traced %d events, want %d", len(tr.Trace().Events), p.TS.NumTiles())
	}
}

// TestAbortedRunLeavesPoolConsistent: a rank dying mid-chain (kernel
// panic) aborts the world with in-flight owned buffers outstanding. The
// abort must surface as an error — not as the pool's double-recycle
// panic, which would mean an error path recycled a buffer it no longer
// owned.
func TestAbortedRunLeavesPoolConsistent(t *testing.T) {
	p := planProgram(t)
	var calls atomic.Int64
	// A Coef called once per point trips partway through the schedule (the
	// fixture has 256 points), late enough that halo messages and pooled
	// buffers are already circulating between ranks.
	trip := Coef(func(ilin.Vec) float64 {
		if calls.Add(1) == 120 {
			panic("kernel abort (test)")
		}
		return 0
	}, "0.0")
	p.Kernel = Statement(Add(p.Kernel.stmt.slots[0], trip))
	for _, overlap := range []bool{false, true} {
		calls.Store(0)
		_, _, err := p.RunParallelOpts(RunOptions{Overlap: overlap, Trace: NewTracer()})
		if err == nil {
			t.Fatalf("overlap=%v: aborted run returned no error", overlap)
		}
		if !strings.Contains(err.Error(), "kernel abort (test)") {
			t.Fatalf("overlap=%v: error %q is not the kernel abort — a cleanup path misbehaved", overlap, err)
		}
	}
}

// TestExecSlowComputeSurvivesShortWatchdog is the executor-level
// regression for the watchdog false positive: with injected per-point
// compute far longer than the watchdog period, downstream ranks park in
// Recv for many periods while upstream ranks compute — healthy pipeline
// fill that must not be aborted.
func TestExecSlowComputeSurvivesShortWatchdog(t *testing.T) {
	p := planProgram(t)
	_, _, err := p.RunParallelOpts(RunOptions{
		Overlap:    true,
		PointDelay: 2 * time.Millisecond, // tiles take tens of ms
		Net:        mpi.Options{Watchdog: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("healthy slow-compute run tripped the watchdog: %v", err)
	}
}

// TestTracerPhasesPartitionSpan pins the one fold on measured runs: on a
// channel world folded into one and two groups and on a TCP world (groups of
// one), blocking and overlapped, with and without a crash-restart, every
// rank's Wait + Unpack + Compute + Send + Drain plus the time between its
// tiles (its group on siblings, a snapshot's quiesce, a restart) is its
// Span, no two of its tiles overlap, and PhaseFractions times the makespan
// is its metrics. On groups of one with no checkpoint a rank's tiles abut,
// so the phases alone make up the span.
func TestTracerPhasesPartitionSpan(t *testing.T) {
	const res = 10 * time.Nanosecond // the fold's rounding, far below the timer's
	p := planProgram(t)
	n := p.Dist.NumProcs()
	mid := n / 2
	crash := &mpi.FaultPlan{Crash: map[int]int64{mid: p.Dist.ChainLen[mid] / 2}, RestartDelay: 100 * time.Microsecond}
	for _, world := range []struct {
		name   string
		groups int // 0: a TCP world
	}{{"E=1", 1}, {"E=2", 2}, {"tcp", 0}} {
		for _, overlap := range []bool{false, true} {
			for _, crashes := range []bool{false, true} {
				arm := fmt.Sprintf("%s overlap=%v crash=%v", world.name, overlap, crashes)
				tr := NewTracer()
				opt := RunOptions{Overlap: overlap, Trace: tr}
				if crashes {
					opt.Net.Faults, opt.Checkpoint = crash, &CheckpointOptions{Every: 2}
				}
				var st mpi.Stats
				var err error
				if world.groups > 0 {
					_, st, err = p.runOn(mpi.NewGroupedWorld(n, world.groups, opt.Net), opt)
				} else {
					w, werr := mpi.NewTCPWorld(n, opt.Net)
					if werr != nil {
						t.Fatal(werr)
					}
					opt.World = w
					_, st, err = p.RunParallelOpts(opt)
					w.Close()
				}
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				checkInboundTraffic(t, p, st)
				trace := tr.Trace()
				fr, mk := trace.PhaseFractions(), trace.Result.Makespan
				var crashed int
				for _, m := range tr.PerRank() {
					crashed += m.Crashes
					var between time.Duration
					end := -1.0
					for _, e := range trace.Events {
						if e.Rank != m.Rank || e.Kind != "" {
							continue
						}
						if end >= 0 {
							between += seconds(e.Start - end)
							if e.Start < end {
								t.Errorf("%s: rank %d's tile %s starts %.9f s before the tile before it ends", arm, m.Rank, e.Tile, end-e.Start)
							}
						}
						end = e.End
					}
					sum := m.Wait + m.Unpack + m.Compute + m.Send + m.Drain
					if d := sum + between - m.Span; m.Tiles == 0 || d > res || d < -res {
						t.Errorf("%s: rank %d: phases %v + between tiles %v, span %v (%d tiles)", arm, m.Rank, sum, between, m.Span, m.Tiles)
					}
					if world.groups == 0 && !crashes && between > res {
						t.Errorf("%s: rank %d's tiles leave %v between them on a group of one", arm, m.Rank, between)
					}
					if s := fr[m.Rank]; !fractionsMatch(s, mk, m, res) {
						t.Errorf("%s: rank %d: PhaseFractions %+v of makespan %.9f s, metrics %+v", arm, m.Rank, s, mk, m)
					}
				}
				if want := map[bool]int{false: 0, true: 1}[crashes]; crashed != want {
					t.Errorf("%s: %d crashes survived, want %d", arm, crashed, want)
				}
			}
		}
	}
}

// TestTracerOneFold: a hand-built timeline — a tile whose wait exceeds its
// receive phase (a negative unpack), a crash and a restart marker — gives
// the same split through RankMetrics, PhaseFractions and CriticalRank, and
// the split the fold defines: the negative unpack counts none, the markers
// nothing but a crash.
func TestTracerOneFold(t *testing.T) {
	tr := NewTracer()
	tr.reset(2)
	tr.events = [][]simnet.Event{
		{
			{Rank: 0, Tile: "a", Start: 0, RecvDone: 0.1, CompDone: 0.5, End: 0.6, Waited: 0.3},
			{Rank: 0, Tile: "slot=1", Kind: "crash", Start: 0.6, RecvDone: 0.6, CompDone: 0.6, End: 0.6},
			{Rank: 0, Tile: "slot=1", Kind: "restart", Start: 0.7, RecvDone: 0.7, CompDone: 0.7, End: 0.7},
			{Rank: 0, Tile: "b", Start: 0.7, RecvDone: 0.8, CompDone: 1, End: 1.2, Waited: 0.05},
		},
		{{Rank: 1, Tile: "c", Start: 0.1, RecvDone: 0.5, CompDone: 0.9, End: 1, Waited: 0.4}},
	}
	tr.ends = []time.Duration{1300 * time.Millisecond, 1100 * time.Millisecond}
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	want := []RankMetrics{
		{Rank: 0, Tiles: 2, Crashes: 1, Wait: ms(350), Unpack: ms(50), Compute: ms(600), Send: ms(300), Drain: ms(100), Span: ms(1300), Workers: 1},
		{Rank: 1, Tiles: 1, Wait: ms(400), Compute: ms(400), Send: ms(100), Drain: ms(100), Span: ms(1000), Workers: 1},
	}
	got := tr.PerRank()
	const res = time.Nanosecond
	near := func(a, b time.Duration) bool { return a-b <= res && b-a <= res }
	for r, m := range got {
		w := want[r]
		if m.Rank != w.Rank || m.Tiles != w.Tiles || m.Crashes != w.Crashes || m.Workers != w.Workers ||
			!near(m.Wait, w.Wait) || !near(m.Unpack, w.Unpack) || !near(m.Compute, w.Compute) ||
			!near(m.Send, w.Send) || !near(m.Drain, w.Drain) || !near(m.Span, w.Span) {
			t.Errorf("rank %d metrics %+v, want %+v", r, m, w)
		}
	}
	trace := tr.Trace()
	if trace.Result.Tiles != 3 || trace.Result.Makespan != 1.2 {
		t.Errorf("result %+v, want 3 tiles over 1.2 s", trace.Result)
	}
	mk := trace.Result.Makespan
	for r, s := range trace.PhaseFractions() {
		if !fractionsMatch(s, mk, got[r], res) {
			t.Errorf("rank %d: PhaseFractions %+v of %.1f s, metrics %+v", r, s, mk, got[r])
		}
	}
	if crit, idle := trace.CriticalRank(); crit != 0 || !near(seconds(idle*mk), got[0].Wait) {
		t.Errorf("critical rank %d, %.4f idle; want rank 0 waiting %v of %.1f s", crit, idle, got[0].Wait, mk)
	}
}

// fractionsMatch reports whether PhaseFractions' split s of makespan mk
// is the metrics m, within res.
func fractionsMatch(s simnet.PhaseSplit, mk float64, m RankMetrics, res time.Duration) bool {
	fr := []float64{s.Wait, s.Recv, s.Compute, s.Send}
	for i, d := range []time.Duration{m.Wait, m.Unpack, m.Compute, m.Send} {
		if e := seconds(fr[i]*mk) - d; e > res || e < -res {
			return false
		}
	}
	return true
}
