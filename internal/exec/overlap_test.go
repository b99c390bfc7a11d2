package exec

import (
	"strings"
	"testing"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// TestOverlapPerRankTraffic: in overlap mode every rank's outbound halo
// traffic must show up in its per-rank overlapped counter, and the per-
// rank counters must sum to the world totals.
func TestOverlapPerRankTraffic(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{19, 23},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(4, 4)
	p := buildProgram(t, nest, tr.H, 0, 1, sumStatement(nest.Q()), zeroInit)
	_, st, err := p.RunParallelOpts(RunOptions{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.OverlappedSends == 0 {
		t.Fatal("no overlapped sends recorded")
	}
	if len(st.PerRank) != p.Dist.NumProcs() {
		t.Fatalf("PerRank len %d, want %d", len(st.PerRank), p.Dist.NumProcs())
	}
	var sends, values int64
	sending := 0
	for _, rt := range st.PerRank {
		if rt.BlockingSends != 0 {
			t.Errorf("rank traffic %+v has blocking sends in overlap mode", rt)
		}
		sends += rt.OverlappedSends
		values += rt.Values
		if rt.OverlappedSends > 0 {
			sending++
		}
	}
	if sends != st.OverlappedSends || values != st.Values {
		t.Fatalf("per-rank sums (%d, %d) != totals (%d, %d)", sends, values, st.OverlappedSends, st.Values)
	}
	if sending < 2 {
		t.Fatalf("only %d ranks sent — expected a multi-rank halo pattern", sending)
	}
}

// TestOverlapWithWatchdogCompletes: a correct schedule must run clean
// under an armed watchdog in both modes (the watchdog only fires on real
// deadlocks, not on ordinary waiting).
func TestOverlapWithWatchdogCompletes(t *testing.T) {
	nest := sorNest(t, 4, 8)
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(1, 1, rat.New(1, 5))
	h.Set(2, 0, rat.New(-1, 4))
	h.Set(2, 2, rat.New(1, 4))
	p := buildProgram(t, nest, h, 2, 1, sumStatement(nest.Q()), zeroInit)
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	for _, overlap := range []bool{false, true} {
		g, _, err := p.RunParallelOpts(RunOptions{
			Overlap: overlap,
			Net:     mpi.Options{Watchdog: 30 * time.Second},
		})
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		if diff, at := seq.MaxAbsDiff(g, p.ScanSpace); diff != 0 {
			t.Fatalf("overlap=%v differs by %g at %v", overlap, diff, at)
		}
	}
}

// TestWatchdogSurfacesAsError: a runtime deadlock (provoked through an
// addresser that makes a rank receive a message nobody sends — simplest:
// run a program whose world has a watchdog and break the schedule by
// executing a raw mis-matched receive) reaches the RunParallelOpts caller
// as an error, not a panic or a hang.
func TestWatchdogSurfacesAsError(t *testing.T) {
	w := mpi.NewWorldOpts(2, mpi.Options{Watchdog: 100 * time.Millisecond})
	err := w.RunE(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			c.Recv(1, 5) // never sent
		} else {
			c.Recv(0, 0)
		}
	})
	if err == nil {
		t.Fatal("expected watchdog error")
	}
	for _, want := range []string{"watchdog", "rank 0", "tag=5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestOverlapInjectedCostFasterThanBlocking: with wire cost injected, the
// overlapped executor must beat the blocking one on a communication-heavy
// schedule — the in-process analogue of the paper's ref. [8] claim, and
// the live check that Isend really overlaps transfer with compute.
func TestOverlapInjectedCostFasterThanBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; long mode only")
	}
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{29, 31},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(5, 4)
	p := buildProgram(t, nest, tr.H, 0, 1, sumStatement(nest.Q()), zeroInit)
	// Inject both wire cost and per-point compute cost: overlap's win is
	// transfer hidden behind the next tile's compute, so with zero compute
	// the two modes tie (modulo scheduler noise) and the comparison is
	// meaningless. Each tile has 20 points → 2ms compute per tile, the same
	// scale as the 2ms transfer it must hide.
	net := mpi.Options{LinkLatency: 2 * time.Millisecond}
	run := func(overlap bool) time.Duration {
		start := time.Now()
		opts := RunOptions{Overlap: overlap, Net: net, PointDelay: 100 * time.Microsecond}
		if _, _, err := p.RunParallelOpts(opts); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Average over a few rounds to shrug off scheduler noise.
	var blocking, overlapped time.Duration
	const rounds = 3
	for i := 0; i < rounds; i++ {
		blocking += run(false)
		overlapped += run(true)
	}
	if overlapped >= blocking {
		t.Fatalf("overlap (%v) not faster than blocking (%v) with %v per message injected",
			overlapped/rounds, blocking/rounds, net.LinkLatency)
	}
}
