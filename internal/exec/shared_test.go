package exec_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// This file pins the once-per-Distribution compiled protocol the executor
// interprets (distrib/protocol.go):
// what the boundary-read lists hold, that compiling is lazy, that it happens
// once, and that concurrent runs may share it.

// TestBoundaryReadsMatchBruteForce: on every differential workload × tiling
// family, each chain slot's compiled boundary-read list is exactly the set
// of reads a per-point containment test finds outside the space, and tiles
// whose D^S neighbourhood is full have none.
func TestBoundaryReadsMatchBruteForce(t *testing.T) {
	var interior int
	for _, c := range diffCases(t) {
		slots, in, nonEmpty, err := c.p.CheckBoundaryReads()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nonEmpty == 0 {
			t.Fatalf("%s: none of %d slots reads outside the space", c.name, slots)
		}
		interior += in
	}
	if interior == 0 {
		t.Fatal("no interior tile in the whole matrix — the empty-list arm went unexercised")
	}
}

// TestNewProgramDoesNoPlanWork: NewProgram builds a plain struct and leaves
// all plan compilation to the first run; a second run on the warm Program
// repeats none of it (no lattice scan, no CommRuns, no containment test).
func TestNewProgramDoesNoPlanWork(t *testing.T) {
	a, err := apps.Jacobi(8, 192) // benchmark's jacobi_coarse
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(a.Nest, a.Rect.H(2, 102, 204))
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewProgram(ts, a.MapDim, a.Width, a.Kernel, a.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.CompileSteps(); n != 0 {
		t.Fatalf("NewProgram did %d plan-compilation steps, want 0", n)
	}
	opt := exec.RunOptions{Overlap: true}
	g1, s1, err := p.RunParallelOpts(opt)
	if err != nil {
		t.Fatal(err)
	}
	first := p.CompileSteps()
	if first == 0 {
		t.Fatal("first run compiled nothing")
	}
	g2, s2, err := p.RunParallelOpts(opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.CompileSteps(); n != first {
		t.Fatalf("second run did %d more plan-compilation steps, want 0", n-first)
	}
	if d, at := g1.MaxAbsDiff(g2, p.ScanSpace); d != 0 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("warm run differs from the compiling run by %g at %v (stats %+v vs %+v)", d, at, s2, s1)
	}
}

// TestCertifyThenRunCompilesOnce: the certifier and the executor read one
// compiled protocol, cached on the Program's Distribution, so a run after a
// certification adds no plan-compilation step — and the chain's compile
// error, were there one, is the one error both surface.
func TestCertifyThenRunCompilesOnce(t *testing.T) {
	c := diffCases(t)[0]
	if _, err := verify.Certify(c.p.TS, c.p.Dist); err != nil {
		t.Fatal(err)
	}
	certified := c.p.CompileSteps()
	if certified == 0 {
		t.Fatal("certification compiled nothing")
	}
	if _, _, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: true}); err != nil {
		t.Fatal(err)
	}
	if n := c.p.CompileSteps(); n != certified {
		t.Fatalf("the run after certification did %d more plan-compilation steps, want 0", n-certified)
	}

	// Every chain fails alike, so no rank is left waiting on a dead peer.
	chainErr := errors.New("distrib: successor pid has no rank")
	for r := 0; r < c.p.Dist.NumProcs(); r++ {
		rp, err := c.p.Dist.Schedule(r)
		if err != nil {
			t.Fatal(err)
		}
		rp.Err = chainErr
	}
	if _, _, err := c.p.RunParallelOpts(exec.RunOptions{}); !errors.Is(err, chainErr) {
		t.Fatalf("run on chains that failed to compile returned %v, want the chains' error", err)
	}
}

// TestConcurrentRunsShareProgram: eight concurrent runs and a certification
// on one fresh Program — the first arrivals racing the lazy compile, overlap
// and blocking runs mixed — must all produce the sequential result bit for
// bit and, per send mode, identical traffic. Run under -race this is the
// sharing contract serve's concurrent /v1/run and /v1/certify requests
// against one cached Artifact rely on.
func TestConcurrentRunsShareProgram(t *testing.T) {
	for _, c := range diffCases(t) {
		if c.name != "sor/nonrect" && c.name != "adi/rect" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			seq, err := c.p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			const runs = 8
			var (
				wg    sync.WaitGroup
				globs [runs]*exec.Global
				stats [runs]mpi.Stats
				errs  [runs]error
				cerr  error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, cerr = verify.Certify(c.p.TS, c.p.Dist)
			}()
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					globs[i], stats[i], errs[i] = c.p.RunParallelOpts(exec.RunOptions{Overlap: i%2 == 0})
				}(i)
			}
			wg.Wait()
			if cerr != nil {
				t.Fatalf("concurrent certification: %v", cerr)
			}
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				if d, at := seq.MaxAbsDiff(globs[i], c.p.ScanSpace); d != 0 {
					t.Fatalf("run %d differs from sequential by %g at %v", i, d, at)
				}
				if !reflect.DeepEqual(stats[i], stats[i%2]) {
					t.Fatalf("run %d traffic differs from run %d's, same send mode:\n got %+v\nwant %+v", i, i%2, stats[i], stats[i%2])
				}
			}
		})
	}
}
