package exec_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
)

// TestFoldMatchesGroupsOfOne runs the differential matrix and a batch of
// random programs on a fresh world — folded into E = min(P, GOMAXPROCS)
// groups, so `go test -cpu 1,2,4` is the fold's matrix — and on a supplied
// channel world, whose groups are single ranks: Global bit-identical and
// Stats DeepEqual, in both send modes.
func TestFoldMatchesGroupsOfOne(t *testing.T) {
	progs := map[string]*exec.Program{}
	for _, c := range diffCases(t) {
		progs[c.name] = c.p
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		s := randSpec(rng)
		if p, ok := specProgram(s); ok {
			progs[s.String()] = p
		}
	}
	for name, p := range progs {
		for _, overlap := range []bool{false, true} {
			folded, fs, err := p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
			if err != nil {
				t.Fatalf("%s overlap=%v folded: %v", name, overlap, err)
			}
			single, ss, err := p.RunParallelOpts(exec.RunOptions{Overlap: overlap, World: mpi.NewWorldOpts(p.Dist.NumProcs(), mpi.Options{})})
			if err != nil {
				t.Fatalf("%s overlap=%v groups of one: %v", name, overlap, err)
			}
			if d, at := single.MaxAbsDiff(folded, p.ScanSpace); d != 0 {
				t.Fatalf("%s overlap=%v: folded run differs by %g at %v", name, overlap, d, at)
			}
			if !reflect.DeepEqual(fs, ss) {
				t.Fatalf("%s overlap=%v: stats differ\nfolded:        %+v\ngroups of one: %+v", name, overlap, fs, ss)
			}
		}
	}
}

// runBounded runs p under opt and fails the test if the run has not
// returned within ten seconds — a rank that refuses its run must abort the
// world, not strand the peers waiting for its messages.
func runBounded(t *testing.T, p *exec.Program, opt exec.RunOptions) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := p.RunParallelOpts(opt)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run still going after 10 s: a failed rank stranded its peers")
		return nil
	}
}

// TestRefusedResumeAbortsPeers: rank 0 refuses a snapshot larger than its
// LDS before its first tile; its peers must be torn down and the refusal
// returned.
func TestRefusedResumeAbortsPeers(t *testing.T) {
	p := diffCases(t)[0].p
	err := runBounded(t, p, exec.RunOptions{Checkpoint: &exec.CheckpointOptions{
		Every: 1, Resume: &exec.RankSnapshot{Rank: 0, LDS: make([]float64, 1<<16)},
	}})
	if err == nil || !strings.Contains(err.Error(), "rank 0 snapshot LDS has") {
		t.Fatalf("got %v, want rank 0's refusal of the snapshot", err)
	}
}

// TestFailedSaveAbortsPeers: rank 0's Save fails at its first snapshot; the
// run must end with that error, not hang.
func TestFailedSaveAbortsPeers(t *testing.T) {
	p := diffCases(t)[0].p
	full := errors.New("disk full")
	err := runBounded(t, p, exec.RunOptions{Overlap: true, Checkpoint: &exec.CheckpointOptions{
		Every: 1,
		Save: func(s *exec.RankSnapshot) error {
			if s.Rank == 0 {
				return full
			}
			return nil
		},
	}})
	if !errors.Is(err, full) {
		t.Fatalf("got %v, want rank 0's Save error", err)
	}
}
