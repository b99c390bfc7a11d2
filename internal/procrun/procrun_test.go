package procrun

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"tilespace/internal/compile"
	"tilespace/internal/exec"
	"tilespace/internal/ilin"
)

const testSpec = "let M = 6\nlet N = 12\n" +
	"for t = 1 .. M\nfor i = 1 .. N\n" +
	"A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3\n" +
	"tile 1/3 0 / 0 1/4\n"

func testProgram(t *testing.T) *exec.Program {
	t.Helper()
	art, err := compile.Compile(compile.Spec{Source: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	return art.Prog
}

func TestRendezvousRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	rv := &Rendezvous{Size: 3, Addrs: map[int]string{
		0: "127.0.0.1:7000", 1: "127.0.0.1:7001", 2: "127.0.0.1:7002",
	}}
	if err := WriteRendezvous(path, rv); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRendezvous(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv, got) {
		t.Fatalf("roundtrip drift: wrote %+v read %+v", rv, got)
	}
}

func TestRendezvousRejectsGaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	rv := &Rendezvous{Size: 3, Addrs: map[int]string{0: "a", 2: "c"}}
	if err := WriteRendezvous(path, rv); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRendezvous(path); err == nil {
		t.Fatal("rendezvous with a missing rank accepted")
	}
}

// TestSplitMergeRoundTrip: splitting a finished run into per-rank owned
// fragments and merging them back must reproduce the Global bit for bit
// and the Stats exactly (totals resummed from the per-rank rows).
func TestSplitMergeRoundTrip(t *testing.T) {
	prog := testProgram(t)
	g, stats, err := prog.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	procs := prog.Dist.NumProcs()
	if procs < 2 {
		t.Fatalf("test spec distributes over %d ranks; need at least 2", procs)
	}
	var frags []*RankResult
	total := 0
	for r := 0; r < procs; r++ {
		vals, err := OwnedValues(prog, g, r)
		if err != nil {
			t.Fatal(err)
		}
		total += len(vals)
		frags = append(frags, &RankResult{Rank: r, Values: vals, Traffic: stats.PerRank[r]})
	}
	var points int
	prog.ScanSpace(func(ilin.Vec) bool { points++; return true })
	if total != points*prog.Width {
		t.Fatalf("fragments carry %d values, space has %d", total, points*prog.Width)
	}

	merged, mergedStats, err := Merge(prog, frags)
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := g.MaxAbsDiff(merged, prog.ScanSpace); diff != 0 {
		t.Fatalf("merged differs by %g at %v", diff, at)
	}
	if !reflect.DeepEqual(stats, mergedStats) {
		t.Fatalf("merged stats drift\nwant %+v\n got %+v", stats, mergedStats)
	}
}

func TestMergeRejectsMissingAndDuplicate(t *testing.T) {
	prog := testProgram(t)
	g, _, err := prog.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := OwnedValues(prog, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Merge(prog, []*RankResult{{Rank: 0, Values: v0}}); err == nil {
		t.Error("merge with missing ranks accepted")
	}
	dup := []*RankResult{{Rank: 0, Values: v0}, {Rank: 0, Values: v0}}
	if _, _, err := Merge(prog, dup); err == nil {
		t.Error("merge with a duplicate rank accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rank.ckpt")
	if s, err := LoadSnapshot(path); err != nil || s != nil {
		t.Fatalf("missing snapshot: got %v, %v; want nil, nil", s, err)
	}
	// NaN must survive: LDS cells a resumed chain has not reached yet
	// hold NaN by construction, and JSON would reject it.
	snap := &exec.RankSnapshot{
		Rank:     2,
		NextTile: 4,
		LDS:      []float64{1.5, math.NaN(), -0.25},
	}
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != snap.Rank || got.NextTile != snap.NextTile || len(got.LDS) != 3 {
		t.Fatalf("snapshot drift: %+v", got)
	}
	if got.LDS[0] != 1.5 || !math.IsNaN(got.LDS[1]) || got.LDS[2] != -0.25 {
		t.Fatalf("LDS drift: %v", got.LDS)
	}
}
