package simnet_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
)

// goldenLines simulates the configurations the other tests of this package
// use — the small-scale Figs. 5–10 shapes and every fault case of
// fault_test.go — and renders each Result (Makespan as its IEEE bits) plus a
// digest of the traced event list, one line per case.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, d *distrib.Distribution, par simnet.Params, fm *simnet.FaultModel) {
		t.Helper()
		var (
			tr  *simnet.Trace
			res *simnet.Result
			err error
		)
		if fm == nil {
			if tr, err = simnet.SimulateTraced(d, par); err == nil {
				res, err = simnet.Simulate(d, par)
			}
		} else {
			if tr, err = simnet.SimulateFaultsTraced(d, par, *fm); err == nil {
				res, err = simnet.SimulateFaults(d, par, *fm)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *res != *tr.Result {
			t.Fatalf("%s: traced and plain results differ", name)
		}
		h := sha256.New()
		for _, e := range tr.Events {
			fmt.Fprintf(h, "%d %s %s %x %x %x %x %x\n", e.Rank, e.Tile, e.Kind,
				math.Float64bits(e.Start), math.Float64bits(e.RecvDone), math.Float64bits(e.CompDone),
				math.Float64bits(e.End), math.Float64bits(e.Waited))
		}
		lines = append(lines, fmt.Sprintf("%s makespan=%016x messages=%d bytes=%d points=%d steps=%d events=%d:%x",
			name, math.Float64bits(res.Makespan), res.Messages, res.BytesSent, res.Points, res.Steps,
			len(tr.Events), h.Sum(nil)[:8]))
	}
	must := func(a *apps.App, err error) *apps.App {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := simnet.FastEthernetPIII()
	overlap := base
	overlap.Overlap = true
	wide := base
	wide.Width = 2

	sor := must(apps.SOR(6, 12))
	dSor := distFor(t, sor, sor.Rect.H(3, 6, 7))
	add("sor6x12/rect-3-6-7", dSor, base, nil)
	add("sor6x12/rect-3-6-7/overlap", dSor, overlap, nil)
	sor12 := must(apps.SOR(12, 24))
	add("sor12x24/rect-3-9-8", distFor(t, sor12, sor12.Rect.H(3, 9, 8)), base, nil)
	add("sor12x24/nr-3-9-8", distFor(t, sor12, sor12.NonRect[0].H(3, 9, 8)), base, nil)
	sor8 := must(apps.SOR(8, 16))
	for _, z := range []int64{2, 4, 8} {
		add(fmt.Sprintf("sor8x16/rect-2-8-%d", z), distFor(t, sor8, sor8.Rect.H(2, 8, z)), base, nil)
	}
	add("sor8x16/rect-2-8-4/overlap", distFor(t, sor8, sor8.Rect.H(2, 8, 4)), overlap, nil)
	add("sor8x16/nr-2-8-4", distFor(t, sor8, sor8.NonRect[0].H(2, 8, 4)), base, nil)
	jac := must(apps.Jacobi(8, 12))
	add("jacobi8x12/rect-2-3-3", distFor(t, jac, jac.Rect.H(2, 3, 3)), base, nil)
	add("jacobi8x12/nr-2-4-4", distFor(t, jac, jac.NonRect[0].H(2, 4, 4)), base, nil)
	add("jacobi8x12/nr-2-4-4/overlap", distFor(t, jac, jac.NonRect[0].H(2, 4, 4)), overlap, nil)
	adi6 := must(apps.ADI(6, 12))
	add("adi6x12/nr3-2-4-4", distFor(t, adi6, adi6.NonRect[2].H(2, 4, 4)), wide, nil)
	adi := must(apps.ADI(16, 16))
	for _, f := range append([]apps.TilingFamily{adi.Rect}, adi.NonRect...) {
		add("adi16x16/"+f.Name+"-4-4-4", distFor(t, adi, f.H(4, 4, 4)), wide, nil)
	}

	// The fault cases of fault_test.go, on its one distribution.
	crashRank := dSor.NumProcs() / 2
	for _, par := range []simnet.Params{base, overlap} {
		mode := "blocking"
		if par.Overlap {
			mode = "overlap"
		}
		for _, tc := range []struct {
			name string
			plan *mpi.FaultPlan
		}{
			{"slow-rank", &mpi.FaultPlan{Slowdown: map[int]float64{crashRank: 4}}},
			{"delayed-link", &mpi.FaultPlan{Links: map[mpi.Link]mpi.LinkFault{
				{Src: 0, Dst: 1}: {Delay: time.Second, Jitter: time.Second},
			}}},
			{"retry-storm", &mpi.FaultPlan{Seed: 7, Sends: &mpi.SendFaults{
				Rate: 0.5, MaxRetries: 4, Backoff: 500 * time.Millisecond,
			}}},
			{"crash-restart", &mpi.FaultPlan{
				Crash:        map[int]int64{crashRank: dSor.ChainLen[crashRank] - 1},
				RestartDelay: time.Second,
			}},
		} {
			add("fault/"+tc.name+"/"+mode, dSor, par, &simnet.FaultModel{Plan: tc.plan, CheckpointEvery: 2, DurScale: 1})
		}
	}
	link := &mpi.FaultPlan{Links: map[mpi.Link]mpi.LinkFault{{Src: 0, Dst: 1}: {Delay: time.Second}}}
	add("fault/durscale-1", dSor, base, &simnet.FaultModel{Plan: link, DurScale: 1})
	add("fault/durscale-10", dSor, base, &simnet.FaultModel{Plan: link, DurScale: 10})
	slow := base
	slow.IterTime = 1e-3
	late := &mpi.FaultPlan{Crash: map[int]int64{crashRank: dSor.ChainLen[crashRank] - 1}}
	add("fault/ckpt-fine", dSor, slow, &simnet.FaultModel{Plan: late, CheckpointEvery: 1})
	add("fault/ckpt-coarse", dSor, slow, &simnet.FaultModel{Plan: late, CheckpointEvery: 1 << 30})
	add("fault/traced-crash", dSor, base, &simnet.FaultModel{
		Plan: &mpi.FaultPlan{
			Crash:        map[int]int64{crashRank: dSor.ChainLen[crashRank] / 2},
			RestartDelay: 100 * time.Millisecond,
		},
		CheckpointEvery: 2,
	})
	return lines
}

// TestGoldenResults pins the simulator bit for bit against
// testdata/golden.txt, recorded before Simulate moved from its own tile walk
// onto the distribution's compiled schedule: the same makespan bits, traffic
// totals and per-tile event times for every configuration.
func TestGoldenResults(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases simulated, golden file holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
