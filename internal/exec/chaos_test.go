package exec_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
)

// The chaos matrix: each of the paper's applications, in both
// communication modes, runs under every injected fault class — a slowed
// rank, a delayed jittery link, transient send failures with retry, and a
// hard crash with checkpointed restart — and must still produce the
// fault-free Global bit for bit, with deterministic traffic stats and
// zero leaked goroutines once the run returns. CHAOS_SEED reseeds the
// randomized fault decisions (default 1) so CI can sweep seeds without a
// code change.

// chaosSeed reads CHAOS_SEED; the chosen seed is logged so a failure is
// reproducible by exporting the same value.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (override with CHAOS_SEED)", seed)
	return seed
}

// checkGoroutines polls until the goroutine count returns to the
// pre-run level: every rank, timer and watchdog goroutine must be gone,
// whether the run completed, restarted or aborted.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leaked %d goroutines (%d -> %d):\n%s",
				now-before, before, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// dropRetries clears the one counter injected faults legitimately change:
// survived retries add SendRetries but must alter no traffic counter.
func dropRetries(s mpi.Stats) mpi.Stats {
	s.SendRetries = 0
	pr := make([]mpi.RankTraffic, len(s.PerRank))
	copy(pr, s.PerRank)
	for i := range pr {
		pr[i].SendRetries = 0
	}
	s.PerRank = pr
	return s
}

// chaosFault is one fault class of the matrix: the world options that
// inject it and the checkpointing it needs to be survivable.
type chaosFault struct {
	name string
	net  mpi.Options
	ck   *exec.CheckpointOptions
}

// chaosFaults builds the fault classes for a program's geometry.
// Magnitudes are small (hundreds of microseconds) — the point is
// exercising every recovery path, not realistic outage lengths.
func chaosFaults(t *testing.T, seed int64, d *distrib.Distribution) []chaosFault {
	mid := d.NumProcs() / 2
	plan := func(fp mpi.FaultPlan) mpi.Options {
		fp.Seed = seed
		return mpi.Options{Faults: &fp}
	}
	// crash-inflight crashes a rank with sends on the wire by construction.
	// Snapshots fall after tiles 1, 3, …; the crashing rank's tile 2 issues
	// two or more sends back to back and the crash fires right behind them,
	// microseconds later, while each is due inflightLatency after the one
	// before: in overlap mode none is due yet — every send issued since the
	// snapshot is in flight, and must arrive exactly once.
	inflight := plan(mpi.FaultPlan{Crash: map[int]int64{inflightRank(t, d): 3}})
	inflight.LinkLatency = inflightLatency
	return []chaosFault{
		{"slow-rank", plan(mpi.FaultPlan{Slowdown: map[int]float64{mid: 4}}), nil},
		{"delayed-link", plan(mpi.FaultPlan{Links: map[mpi.Link]mpi.LinkFault{
			{Src: 0, Dst: 1}:         {Delay: 300 * time.Microsecond, Jitter: 300 * time.Microsecond},
			{Src: mid, Dst: mid - 1}: {Delay: 200 * time.Microsecond},
		}}), nil},
		{"transient-send-failure", plan(mpi.FaultPlan{Sends: &mpi.SendFaults{
			Rate: 0.3, MaxRetries: 3, Backoff: 100 * time.Microsecond,
		}}), nil},
		{"crash-restart", plan(mpi.FaultPlan{
			Crash:        map[int]int64{mid: d.ChainLen[mid] / 2},
			RestartDelay: 500 * time.Microsecond,
		}), &exec.CheckpointOptions{Every: 2}},
		{"crash-inflight", inflight, &exec.CheckpointOptions{Every: 2}},
	}
}

// inflightLatency is crash-inflight's injected per-message wire cost: far
// above the gap between a tile's last send and the crash behind it, small
// enough for the matrix to stay quick.
const inflightLatency = 3 * time.Millisecond

// inflightRank finds a rank whose chain reaches tile 3 and whose tile 2
// sends along at least two processor directions (the SEND rule of
// pack: a valid successor and a non-empty region).
func inflightRank(t *testing.T, d *distrib.Distribution) int {
	t.Helper()
	for r := 0; r < d.NumProcs(); r++ {
		if d.ChainLen[r] < 4 {
			continue
		}
		rp, err := d.Schedule(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(rp.Slots[2].Sends) >= 2 {
			return r
		}
	}
	t.Fatal("no rank sends two messages from tile 2 of a chain of four — crash-inflight needs another geometry")
	return -1
}

// chaosCases picks one representative per application (SOR, Jacobi, ADI)
// from the differential matrix — non-rectangular SOR so the chaos sweep
// covers a cone-derived tiling too.
func chaosCases(t *testing.T) []diffCase {
	want := map[string]bool{"sor/nonrect": true, "jacobi/rect": true, "adi/rect": true}
	var out []diffCase
	for _, c := range diffCases(t) {
		if want[c.name] {
			out = append(out, c)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("chaos matrix found %d of %d representative cases", len(out), len(want))
	}
	return out
}

// checkChaos runs c under fault f and holds it to the fault-free run of the
// same communication mode: bit-identical Global, identical traffic, one
// crash where one is planned, the sends in flight at a crash delivered
// exactly once, no goroutine left.
func checkChaos(t *testing.T, c diffCase, overlap bool, f chaosFault, want *exec.Global, wantStats mpi.Stats) {
	t.Helper()
	before := runtime.NumGoroutine()
	tr := exec.NewTracer()
	got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{
		Overlap:    overlap,
		Net:        f.net,
		Trace:      tr,
		Checkpoint: f.ck,
	})
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	// The crash keeps what the rank has issued: its sends in flight arrive
	// once, and re-execution resends none of them — the DeepEqual Stats
	// below count every send and every receive of the fault-free run
	// exactly once.
	var crashes int
	for _, m := range tr.PerRank() {
		crashes += m.Crashes
		if f.name == "crash-inflight" && overlap && m.Crashes > 0 && m.PendingPeak < 2 {
			t.Errorf("rank %d crashed with a peak of %d sends on the wire, want 2 — the case does not cross the in-flight path", m.Rank, m.PendingPeak)
		}
	}
	if f.ck != nil && crashes != 1 {
		t.Errorf("%d ranks crashed, want 1", crashes)
	}
	if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
		t.Fatalf("faulty run differs from fault-free by %g at %v", diff, at)
	}
	if f.name == "transient-send-failure" {
		if gotStats.SendRetries == 0 {
			t.Error("no retries injected — the fault class is inert at this seed")
		}
		gotStats = dropRetries(gotStats)
	}
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("traffic stats drifted under faults\nfault-free: %+v\nfaulty:     %+v", wantStats, gotStats)
	}
	checkGoroutines(t, before)
}

// TestChaosMatrix runs every fault class in both communication modes.
func TestChaosMatrix(t *testing.T) {
	seed := chaosSeed(t)
	for _, c := range chaosCases(t) {
		c := c
		for _, overlap := range []bool{false, true} {
			want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
			if err != nil {
				t.Fatalf("%s fault-free overlap=%v: %v", c.name, overlap, err)
			}
			for _, f := range chaosFaults(t, seed, c.p.Dist) {
				f := f
				t.Run(fmt.Sprintf("%s/overlap=%v/%s", c.name, overlap, f.name), func(t *testing.T) {
					checkChaos(t, c, overlap, f, want, wantStats)
				})
			}
		}
	}
}

// TestChaosMatrixDynamic reruns the overlap arm of TestChaosMatrix at every
// runtime thread count (workerCounts), where the ranks race hardest: the
// result and the traffic must not depend on how many OS threads run the
// ranks. The name and the workers=N subtests are kept from the dynamic
// receive policy this matrix once exercised.
func TestChaosMatrixDynamic(t *testing.T) {
	seed := chaosSeed(t)
	for _, c := range chaosCases(t) {
		c := c
		want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: true})
		if err != nil {
			t.Fatalf("%s fault-free overlap: %v", c.name, err)
		}
		for _, w := range workerCounts() {
			if testing.Short() && w > 1 {
				continue
			}
			for _, f := range chaosFaults(t, seed, c.p.Dist) {
				f := f
				t.Run(fmt.Sprintf("%s/workers=%d/%s", c.name, w, f.name), func(t *testing.T) {
					withWorkers(w, func() { checkChaos(t, c, true, f, want, wantStats) })
				})
			}
		}
	}
}

// An aborted run (crash with no checkpointing) must also wind down every
// goroutine: abort is a first-class exit path, not a leak.
func TestChaosAbortLeaksNothing(t *testing.T) {
	cs := chaosCases(t)
	before := runtime.NumGoroutine()
	_, _, err := cs[0].p.RunParallelOpts(exec.RunOptions{
		Overlap: true,
		Net: mpi.Options{
			Watchdog: 2 * time.Second,
			Faults:   &mpi.FaultPlan{Crash: map[int]int64{1: 0}},
		},
	})
	if err == nil {
		t.Fatal("crash without checkpointing returned no error")
	}
	checkGoroutines(t, before)
}

// Regression for the watchdog/fault interplay at the executor level: with
// every fault class active and every injected delay (link delay, retry
// backoff, restart outage) longer than the watchdog period, the run must
// complete — a message on the wire and a group waiting out a deadline are
// activity, so a tight watchdog cannot misread injected slowness as
// deadlock.
func TestWatchdogToleratesInjectedFaults(t *testing.T) {
	c := chaosCases(t)[0]
	mid := c.p.Dist.NumProcs() / 2
	plan := &mpi.FaultPlan{
		Seed: 3,
		Links: map[mpi.Link]mpi.LinkFault{
			{Src: 0, Dst: 1}: {Delay: 15 * time.Millisecond, Jitter: 5 * time.Millisecond},
		},
		Sends:        &mpi.SendFaults{Rate: 0.9, MaxRetries: 2, Backoff: 8 * time.Millisecond},
		Crash:        map[int]int64{mid: c.p.Dist.ChainLen[mid] / 2},
		RestartDelay: 20 * time.Millisecond,
	}
	for _, overlap := range []bool{false, true} {
		want, _, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.p.RunParallelOpts(exec.RunOptions{
			Overlap:    overlap,
			Net:        mpi.Options{Watchdog: 5 * time.Millisecond, Faults: plan},
			Checkpoint: &exec.CheckpointOptions{Every: 2},
		})
		if err != nil {
			t.Fatalf("overlap=%v: watchdog misfired under injected faults: %v", overlap, err)
		}
		if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
			t.Fatalf("overlap=%v: faulty run differs by %g at %v", overlap, diff, at)
		}
	}
}
