package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/tiling"
)

// TestFoldEveryGroupCount runs two fixtures folded into every group count
// from one executor to one per rank, whatever GOMAXPROCS says, against the
// same program on a world of groups of one: bit-identical Global, DeepEqual
// Stats, and the runtime's receive counts equal to the inbound tables' rows.
// It does so twice: plainly, and modelling time on every path a rank can be
// busy (modelledRun). A plain run also traces one event per tile, and its
// ranks' busy time (unpack, compute, send) is at most E times the run's
// span: members of a group take turns, so no member's tile time may count a
// sibling's. A modelled rank's compute and wire time overlap its siblings'
// by design, so that bound is the plain runs' alone.
func TestFoldEveryGroupCount(t *testing.T) {
	for name, p := range map[string]*Program{"sor": planProgram(t), "adi": adiProgram(t)} {
		n := p.Dist.NumProcs()
		for _, modelled := range []bool{false, true} {
			for _, overlap := range []bool{false, true} {
				opt := RunOptions{Overlap: overlap}
				if modelled {
					opt = modelledRun(t, p, overlap)
				}
				arm := fmt.Sprintf("%s modelled=%v overlap=%v", name, modelled, overlap)
				want, wantStats, err := p.runOn(mpi.NewWorldOpts(n, opt.Net), opt)
				if err != nil {
					t.Fatalf("%s groups of one: %v", arm, err)
				}
				for e := 1; e <= n; e++ {
					tr := NewTracer()
					traced := opt
					traced.Trace = tr
					g, stats, err := p.runOn(mpi.NewGroupedWorld(n, e, opt.Net), traced)
					if err != nil {
						t.Fatalf("%s E=%d: %v", arm, e, err)
					}
					if d, at := want.MaxAbsDiff(g, p.ScanSpace); d != 0 {
						t.Fatalf("%s E=%d: folded run differs by %g at %v", arm, e, d, at)
					}
					if !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("%s E=%d: stats differ\n got %+v\nwant %+v", arm, e, stats, wantStats)
					}
					var crashes int64
					var busy time.Duration
					for _, m := range tr.PerRank() {
						crashes += int64(m.Crashes)
						busy += m.Unpack + m.Compute + m.Send
						if m.Tiles > 0 && m.Span <= 0 || m.Wait < 0 || m.Unpack < 0 {
							t.Fatalf("%s E=%d: rank %d metrics %+v", arm, e, m.Rank, m)
						}
					}
					checkInboundTraffic(t, p, stats)
					if modelled {
						if crashes != 1 {
							t.Fatalf("%s E=%d: %d crashes survived, want the planned one", arm, e, crashes)
						}
						continue
					}
					if evs := len(tr.Trace().Events); int64(evs) != p.TS.NumTiles() {
						t.Fatalf("%s E=%d: %d events for %d tiles", arm, e, evs, p.TS.NumTiles())
					}
					if span := tr.Trace().Result.Makespan; busy.Seconds() > float64(e)*span+1e-9 {
						t.Fatalf("%s E=%d: ranks busy %.6f s in a %.6f s run", arm, e, busy.Seconds(), span)
					}
				}
			}
		}
	}
}

// modelledRun returns options that model time on every path a rank can be
// busy: per-point compute, three times slower on the middle rank; wire cost
// on every message, more on the middle rank's outbound links; transient send
// failures; and a crash halfway along the middle rank's chain, recovered
// from an in-memory checkpoint after a restart outage. The costs are small,
// so a run takes milliseconds, but every one is a deadline some group waits
// on.
func modelledRun(tb testing.TB, p *Program, overlap bool) RunOptions {
	mid := p.Dist.NumProcs() / 2
	links := map[mpi.Link]mpi.LinkFault{}
	for _, dst := range mustPlan(tb, p, mid).SendRank {
		if dst >= 0 {
			links[mpi.Link{Src: mid, Dst: dst}] = mpi.LinkFault{Delay: 40 * time.Microsecond, Jitter: 20 * time.Microsecond}
		}
	}
	return RunOptions{
		Overlap:    overlap,
		PointDelay: time.Microsecond,
		Net: mpi.Options{LinkLatency: 20 * time.Microsecond, PerValue: 100 * time.Nanosecond, Faults: &mpi.FaultPlan{
			Seed:         7,
			Slowdown:     map[int]float64{mid: 3},
			Links:        links,
			Sends:        &mpi.SendFaults{Rate: 0.3, MaxRetries: 2, Backoff: 10 * time.Microsecond},
			Crash:        map[int]int64{mid: p.Dist.ChainLen[mid] / 2},
			RestartDelay: 100 * time.Microsecond,
		}},
		Checkpoint: &CheckpointOptions{Every: 2},
	}
}

// TestFoldedModelledComputeOverlaps: ranks folded onto one executor are
// busy with their modelled compute at once, not one after another. The
// fixture's ranks share no dependence, so each runs its chain alone and the
// run takes about one rank's modelled compute; a group that slept each
// member's compute in turn would take P times that.
func TestFoldedModelledComputeOverlaps(t *testing.T) {
	const delay = 500 * time.Microsecond
	deps := ilin.MatFromRows([]int64{1}, []int64{0}) // along i only: no rank feeds another
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{15, 15}, deps)
	tr, _ := tiling.Rectangular(4, 4)
	p := buildProgram(t, nest, tr.H, 0, 1, sumStatement(nest.Q()), zeroInit)
	n := p.Dist.NumProcs()
	if n < 4 {
		t.Fatalf("fixture has %d ranks, want at least 4", n)
	}
	var one time.Duration // the largest rank's modelled compute
	for r := 0; r < n; r++ {
		var pts int64
		for _, sl := range mustPlan(t, p, r).Slots {
			pts += sl.Npts
		}
		one = max(one, time.Duration(pts)*delay)
	}
	start := time.Now()
	if _, _, err := p.runOn(mpi.NewGroupedWorld(n, 1, mpi.Options{}), RunOptions{Overlap: true, PointDelay: delay}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Duration(n)*one/2 {
		t.Fatalf("%d ranks folded onto one executor took %v, one rank's modelled compute is %v: the members' compute ran one after another", n, took, one)
	}
}

// TestFoldedWatchdogNamesLostMessage drops one message from a sender's
// compiled SEND — the last the highest rank with an inbound row receives —
// and runs folded into one and two groups under a watchdog: the run must
// end in a watchdog error within about twice its timeout, naming a parked
// rank and the stream it waits on.
func TestFoldedWatchdogNamesLostMessage(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, e := range []int{1, 2} {
		p := planProgram(t)
		n := p.Dist.NumProcs()
		recv := n - 1
		for len(mustPlan(t, p, recv).Msgs) == 0 {
			recv--
		}
		rp := mustPlan(t, p, recv)
		dir := rp.Msgs[len(rp.Msgs)-1].Dir
		src := rp.RecvRank[dir]
		sp := mustPlan(t, p, src)
		dropped := false
		for s := len(sp.Slots) - 1; s >= 0 && !dropped; s-- {
			sends := sp.Slots[s].Sends
			for k := range sends {
				if sends[k].Dir == dir {
					sp.Slots[s].Sends = append(sends[:k:k], sends[k+1:]...)
					dropped = true
					break
				}
			}
		}
		if !dropped {
			t.Fatalf("rank %d sends nothing along direction %d", src, dir)
		}
		start := time.Now()
		_, _, err := p.runOn(mpi.NewGroupedWorld(n, e, mpi.Options{Watchdog: timeout}), RunOptions{Overlap: true})
		took := time.Since(start)
		if err == nil {
			t.Fatalf("E=%d: a run missing a message completed", e)
		}
		want := fmt.Sprintf("watchdog: rank %d blocked in Recv(src=%d, tag=%d)", recv, src, dir)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("E=%d: error %q does not name %q", e, err, want)
		}
		if took < 2*timeout || took > 2*timeout+time.Second {
			t.Errorf("E=%d: watchdog tripped after %v, want about %v", e, took, 2*timeout)
		}
	}
}
