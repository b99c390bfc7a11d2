package exec

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
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
// event per tile, per-rank metrics consistent with mpi.Stats, and a
// timeline the shared simnet analytics can digest.
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
			var tiles, msgsIn, valsIn, msgsOut, valsOut int
			for _, m := range tr.PerRank() {
				tiles += m.Tiles
				msgsIn += m.MsgsRecvd
				valsIn += m.ValuesRecvd
				msgsOut += m.MsgsSent
				valsOut += m.ValuesSent
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
			// Every message sent is received exactly once, and the mpi
			// layer's deterministic counters must agree with the tracer's.
			if int64(msgsIn) != st.Messages || int64(valsIn) != st.Values {
				t.Errorf("tracer received %d msgs / %d values, mpi counted %d / %d", msgsIn, valsIn, st.Messages, st.Values)
			}
			if msgsOut != msgsIn || valsOut != valsIn {
				t.Errorf("tracer sent %d/%d but received %d/%d", msgsOut, valsOut, msgsIn, valsIn)
			}
			if int64(msgsIn) != st.Recvs || int64(valsIn) != st.ValuesRecvd {
				t.Errorf("mpi recv counters (%d, %d) disagree with tracer (%d, %d)", st.Recvs, st.ValuesRecvd, msgsIn, valsIn)
			}
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
			hits := 0
			for _, m := range tr.PerRank() {
				hits += m.PoolHits
			}
			if hits == 0 {
				t.Error("planned run recorded no buffer-pool hits")
			}
			if _, err := trace.TraceEventJSON(); err != nil {
				t.Errorf("trace export: %v", err)
			}
		})
	}
}

// TestTracerReuse: attaching the same tracer to a second run must reset
// it, not accumulate the first run's events.
func TestTracerReuse(t *testing.T) {
	p := planProgram(t)
	tr := NewTracer()
	for i := 0; i < 2; i++ {
		if _, _, err := p.RunParallelOpts(RunOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := int64(len(tr.Trace().Events)), p.TS.NumTiles(); got != want {
		t.Fatalf("after reuse: %d events, want %d", got, want)
	}
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
	world := mpi.NewGroupedWorld(p.Dist.NumProcs(), executors(p.Dist.NumProcs(), opt), opt.Net)
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
	kernel := p.Kernel
	p.Kernel = PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
		// Trip partway through the schedule (the fixture has 256 points),
		// late enough that halo messages and pooled buffers are already
		// circulating between ranks.
		if calls.Add(1) == 120 {
			panic("kernel abort (test)")
		}
		kernel.Point(j, reads, out)
	})
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
