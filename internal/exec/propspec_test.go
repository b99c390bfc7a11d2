package exec_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/mpi"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// Property-based differential testing: instead of the curated app matrix,
// generate random uniform-dependence workloads (space bounds, dependence
// set, rectangular tile sizes), push each through the static certifier and
// every executor — sequential oracle, legacy, planned, planned with a
// crash-restart — and require bit-identical results. A failing spec is
// greedily shrunk (smaller space, fewer dependencies, smaller tiles)
// before reporting, so the log carries a minimal reproducer, not a random
// haystack. PROP_SEED reseeds the generator (default 1).

// propSpec is one generated workload: lo = 0, hi per dimension, dependence
// rows, and the diagonal tile sizes.
type propSpec struct {
	hi    []int64
	deps  [][]int64
	sizes []int64
}

func (s propSpec) String() string {
	return fmt.Sprintf("hi=%v deps=%v sizes=%v", s.hi, s.deps, s.sizes)
}

// randSpec draws a depth-2 or depth-3 workload. Dependence entries are
// non-negative with a positive leading component, so every spec is
// lexicographically positive and legal under rectangular tiling — the
// generator explores geometry, not legality rejections.
func randSpec(rng *rand.Rand) propSpec {
	n := 2 + rng.Intn(2)
	s := propSpec{hi: make([]int64, n), sizes: make([]int64, n)}
	for k := 0; k < n; k++ {
		s.hi[k] = 4 + rng.Int63n(6)    // 5..10 points per dim
		s.sizes[k] = 2 + rng.Int63n(4) // tiles 2..5 wide
	}
	ndeps := 1 + rng.Intn(3)
	seen := map[string]bool{}
	for len(s.deps) < ndeps {
		d := make([]int64, n)
		lead := rng.Intn(n)
		d[lead] = 1 + rng.Int63n(2)
		for k := lead + 1; k < n; k++ {
			d[k] = rng.Int63n(3)
		}
		key := fmt.Sprint(d)
		if !seen[key] {
			seen[key] = true
			s.deps = append(s.deps, d)
		}
	}
	return s
}

// specProgram compiles one spec, or reports false when the spec is rejected
// upstream (analysis or program construction).
func specProgram(s propSpec) (*exec.Program, bool) {
	names := make([]string, len(s.hi))
	lo := make([]int64, len(s.hi))
	for k := range names {
		names[k] = fmt.Sprintf("j%d", k)
	}
	nest, err := loopnest.Box(names, lo, s.hi, ilin.MatFromRows(s.deps...).Transpose())
	if err != nil {
		return nil, false
	}
	rect, err := tiling.Rectangular(s.sizes...)
	if err != nil {
		return nil, false
	}
	ts, err := tiling.Analyze(nest, rect.H)
	if err != nil {
		return nil, false
	}
	kernel := exec.PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
		v := 1.0
		for _, r := range reads {
			v += 0.5 * r[0]
		}
		out[0] = v
	})
	p, err := exec.NewProgram(ts, -1, 1, kernel, nil)
	return p, err == nil
}

// checkSpec runs the whole pipeline on one spec. It returns a non-empty
// failure description when a property is violated, "" when the spec
// passes, and skip=true when the spec is rejected upstream (analysis or
// program construction) — rejection is not a differential failure.
func checkSpec(s propSpec) (failure string, skip bool) {
	p, ok := specProgram(s)
	if !ok {
		return "", true
	}
	ts := p.TS
	if _, err := verify.Certify(ts, p.Dist); err != nil {
		return fmt.Sprintf("certifier rejected a legal spec: %v", err), false
	}
	seq, err := p.RunSequential()
	if err != nil {
		return fmt.Sprintf("sequential: %v", err), false
	}
	for _, overlap := range []bool{false, true} {
		legacy, _, err := p.RunLegacy(overlap)
		if err != nil {
			return fmt.Sprintf("legacy overlap=%v: %v", overlap, err), false
		}
		planned, _, err := p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
		if err != nil {
			return fmt.Sprintf("planned overlap=%v: %v", overlap, err), false
		}
		if d, at := seq.MaxAbsDiff(legacy, p.ScanSpace); d != 0 {
			return fmt.Sprintf("legacy overlap=%v differs from sequential by %g at %v", overlap, d, at), false
		}
		if d, at := seq.MaxAbsDiff(planned, p.ScanSpace); d != 0 {
			return fmt.Sprintf("planned overlap=%v differs from sequential by %g at %v", overlap, d, at), false
		}
	}
	// Crash-restart on generated geometry: recovery must be bit-exact on
	// workloads nobody hand-tuned, not just the curated apps.
	if procs := p.Dist.NumProcs(); procs > 1 {
		mid := procs / 2
		crash := mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{mid: p.Dist.ChainLen[mid] / 2}}}
		restarted, _, err := p.RunParallelOpts(exec.RunOptions{
			Overlap:    true,
			Net:        crash,
			Checkpoint: &exec.CheckpointOptions{Every: 2},
		})
		if err != nil {
			return fmt.Sprintf("crash-restart: %v", err), false
		}
		if d, at := seq.MaxAbsDiff(restarted, p.ScanSpace); d != 0 {
			return fmt.Sprintf("crash-restart differs from sequential by %g at %v", d, at), false
		}
	}
	return "", false
}

// shrinkSpec greedily minimizes a failing spec: each step tries every
// single-element reduction (one dim shorter, one dependence dropped, one
// tile size smaller) and recurses on the first that still fails, stopping
// at a local minimum. fails must treat upstream-rejected specs as passing,
// which keeps shrinking inside the valid-spec region.
func shrinkSpec(s propSpec, fails func(propSpec) bool) propSpec {
	for {
		shrunk := false
		for _, cand := range shrinkSteps(s) {
			if fails(cand) {
				s, shrunk = cand, true
				break
			}
		}
		if !shrunk {
			return s
		}
	}
}

func shrinkSteps(s propSpec) []propSpec {
	var out []propSpec
	clone := func() propSpec {
		c := propSpec{
			hi:    append([]int64(nil), s.hi...),
			sizes: append([]int64(nil), s.sizes...),
		}
		for _, d := range s.deps {
			c.deps = append(c.deps, append([]int64(nil), d...))
		}
		return c
	}
	if len(s.deps) > 1 {
		for i := range s.deps {
			c := clone()
			c.deps = append(c.deps[:i], c.deps[i+1:]...)
			out = append(out, c)
		}
	}
	for k := range s.hi {
		if s.hi[k] > 2 {
			c := clone()
			c.hi[k]--
			out = append(out, c)
		}
	}
	for k := range s.sizes {
		if s.sizes[k] > 2 {
			c := clone()
			c.sizes[k]--
			out = append(out, c)
		}
	}
	return out
}

func TestRandomSpecsDifferential(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("PROP_SEED"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("PROP_SEED=%q: %v", v, err)
		}
		seed = p
	}
	rng := rand.New(rand.NewSource(seed))
	specs := 40
	if testing.Short() {
		specs = 12
	}
	ran := 0
	for i := 0; i < specs; i++ {
		s := randSpec(rng)
		failure, skip := checkSpec(s)
		if skip {
			continue
		}
		ran++
		if failure != "" {
			min := shrinkSpec(s, func(c propSpec) bool {
				f, sk := checkSpec(c)
				return !sk && f != ""
			})
			minFailure, _ := checkSpec(min)
			t.Fatalf("seed %d spec %d failed: %s\noriginal: %v\nminimal reproducer: %v\nminimal failure: %s",
				seed, i, failure, s, min, minFailure)
		}
	}
	// The generator must mostly produce runnable specs, or the property
	// coverage silently collapses to nothing.
	if ran < specs/2 {
		t.Fatalf("only %d of %d generated specs were runnable — generator drifted out of the valid region", ran, specs)
	}
	t.Logf("seed %d: %d/%d specs ran clean", seed, ran, specs)
}

// The shrinker itself is verified against a synthetic failure predicate
// with a known minimum: it must descend to that minimum, not stop early
// and not escape the failing region.
func TestSpecShrinkerMinimizes(t *testing.T) {
	s := propSpec{
		hi:    []int64{9, 8, 7},
		deps:  [][]int64{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}},
		sizes: []int64{5, 4, 3},
	}
	// "Fails" iff dimension 0 spans at least 6 points and some dependence
	// touches dimension 2: minimal form pins hi[0]=5 (hi is inclusive),
	// one dependence, and everything else floored.
	fails := func(c propSpec) bool {
		if c.hi[0] < 5 {
			return false
		}
		for _, d := range c.deps {
			if d[2] != 0 {
				return true
			}
		}
		return false
	}
	if !fails(s) {
		t.Fatal("synthetic predicate does not fail the seed spec")
	}
	min := shrinkSpec(s, fails)
	want := propSpec{hi: []int64{5, 2, 2}, deps: [][]int64{{1, 1, 1}}, sizes: []int64{2, 2, 2}}
	if min.String() != want.String() {
		t.Fatalf("shrinker stopped at %v, want %v", min, want)
	}
}
