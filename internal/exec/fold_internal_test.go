package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tilespace/internal/mpi"
)

// TestFoldEveryGroupCount runs two fixtures folded into every group count
// from one executor to one per rank, whatever GOMAXPROCS says, against the
// same program on a world of groups of one: bit-identical Global, DeepEqual
// Stats, and with tracing on one event per tile and the tracer's traffic
// equal to the runtime's.
func TestFoldEveryGroupCount(t *testing.T) {
	for name, p := range map[string]*Program{"sor": planProgram(t), "adi": adiProgram(t)} {
		n := p.Dist.NumProcs()
		for _, overlap := range []bool{false, true} {
			want, wantStats, err := p.runOn(mpi.NewWorldOpts(n, mpi.Options{}), RunOptions{Overlap: overlap})
			if err != nil {
				t.Fatal(err)
			}
			for e := 1; e <= n; e++ {
				tr := NewTracer()
				g, stats, err := p.runOn(mpi.NewGroupedWorld(n, e, mpi.Options{}), RunOptions{Overlap: overlap, Trace: tr})
				if err != nil {
					t.Fatalf("%s E=%d overlap=%v: %v", name, e, overlap, err)
				}
				if d, at := want.MaxAbsDiff(g, p.ScanSpace); d != 0 {
					t.Fatalf("%s E=%d overlap=%v: folded run differs by %g at %v", name, e, overlap, d, at)
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Fatalf("%s E=%d overlap=%v: stats differ\n got %+v\nwant %+v", name, e, overlap, stats, wantStats)
				}
				if evs := len(tr.Trace().Events); int64(evs) != p.TS.NumTiles() {
					t.Fatalf("%s E=%d: %d events for %d tiles", name, e, evs, p.TS.NumTiles())
				}
				var msgs, vals int64
				for _, m := range tr.PerRank() {
					msgs += int64(m.MsgsRecvd)
					vals += int64(m.ValuesRecvd)
					if m.Tiles > 0 && m.Span <= 0 || m.Wait < 0 || m.Unpack < 0 {
						t.Fatalf("%s E=%d: rank %d metrics %+v", name, e, m.Rank, m)
					}
				}
				if msgs != stats.Recvs || vals != stats.ValuesRecvd {
					t.Fatalf("%s E=%d: tracer received %d/%d, mpi counted %d/%d", name, e, msgs, vals, stats.Recvs, stats.ValuesRecvd)
				}
			}
		}
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
