package serve

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
)

// TestEvictionUnderLoad is the satellite contract for safe eviction:
// with a cache far smaller than the working set, runs keep executing on
// Artifacts that get evicted mid-flight. Every in-flight run must finish
// bit-identical to the reference (the Artifact is immutable, holders
// keep their pointer), and a re-request of an evicted spec must
// recompile — never serve stale or corrupt state. Run with -race.
func TestEvictionUnderLoad(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{CacheCapacity: 1, MaxInFlight: 4, MaxQueue: 256})

	// The spec whose artifact we want evicted mid-run, plus its
	// reference checksum from a direct in-process execution.
	victim := heatSpec(12)
	art, err := compileSource(victim)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := art.Prog.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := art.Checksum(g)
	// The digest folds the space a row at a time; it must be the digest of
	// the same values point by point.
	h := ilin.HashSeed()
	art.Prog.ScanSpace(func(j ilin.Vec) bool {
		for _, v := range g.At(j) {
			h = ilin.HashInt64(h, int64(math.Float64bits(v)))
		}
		return true
	})
	if perPoint := fmt.Sprintf("%016x", h); perPoint != want {
		t.Fatalf("row-wise checksum %s, per-point %s", want, perPoint)
	}

	// Slow the victim runs down so the churn below overlaps them: seed the
	// cache with an artifact of the victim whose kernel is the parsed
	// statement (the same C, so the same tree) minus a Coef that sleeps per
	// point and returns 0: x − 0 is x bit for bit, −0 included, so its values
	// stay those of the reference.
	heat := exec.Add(exec.Mul(exec.Const(0.5), exec.Add(exec.Read(0, 0), exec.Read(1, 0))), exec.Const(3))
	parsedC, _ := art.Prog.Kernel.C()
	if c, _ := exec.Statement(heat).C(); c != parsedC {
		t.Fatalf("the slow kernel's statement prints %q, the parsed one %q", c, parsedC)
	}
	nap := exec.Coef(func(ilin.Vec) float64 {
		time.Sleep(time.Millisecond)
		return 0
	}, "0.0")
	slowProg, err := exec.NewProgram(art.Prog.TS, art.Prog.Dist.M, art.Prog.Width,
		exec.Statement(exec.Sub(heat, nap)), art.Prog.Initial)
	if err != nil {
		t.Fatal(err)
	}
	slow := &Artifact{Source: victim, Width: art.Width, Procs: art.Procs, Tiles: art.Tiles,
		TileSize: art.TileSize, Prog: slowProg}
	if _, _, err := s.cache.Get(victim, func() (*Artifact, error) { return slow, nil }); err != nil {
		t.Fatal(err)
	}
	slowRun := runRequest{Source: victim}

	const (
		runners  = 4
		churners = 4
		churnSet = 48 // distinct specs, vs capacity 1 — constant eviction
	)
	var wg, running sync.WaitGroup
	for r := 0; r < runners; r++ {
		running.Add(1)
		go func(r int) {
			defer running.Done()
			for i := 0; i < 3; i++ {
				resp, body := postJSON(t, client, ts.URL+"/v1/run", slowRun)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("runner %d: %d %s", r, resp.StatusCode, body)
					return
				}
				if sum := decode[runResponse](t, body).Checksum; sum != want {
					t.Errorf("runner %d: checksum %s, want %s (evicted mid-run?)", r, sum, want)
				}
			}
		}(r)
	}
	// Churn only once every runner is executing on the seeded artifact, so
	// their first runs are evicted mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.inFlight() < runners {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d slow runs ever in flight", s.adm.inFlight(), runners)
		}
		time.Sleep(time.Millisecond)
	}
	runnersDone := make(chan struct{})
	go func() {
		running.Wait()
		close(runnersDone)
	}()
	// Each churner walks its share of the churn set at least once and
	// keeps cycling through it until the last runner is done, so the
	// victim is evicted after its last re-insertion too.
	const share = churnSet / churners
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= share {
					select {
					case <-runnersDone:
						return
					default:
					}
				}
				src := heatSpec(16 + 4*(c*share+i%share))
				resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("churner %d: %d %s", c, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	<-runnersDone

	_, compilesBefore, evictions := s.cache.Stats()
	if evictions == 0 {
		t.Fatal("churn produced no evictions — the test exercised nothing")
	}

	// The victim is (almost certainly) evicted by now; the next request
	// must recompile and still agree bit for bit.
	resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: victim})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-churn run: %d %s", resp.StatusCode, body)
	}
	r := decode[runResponse](t, body)
	if r.Checksum != want {
		t.Fatalf("post-churn checksum %s, want %s", r.Checksum, want)
	}
	if r.CacheHit {
		t.Log("victim survived the churn (a slow run re-inserted it last); recompile path not exercised this run")
	} else if _, compiles, _ := s.cache.Stats(); compiles <= compilesBefore {
		t.Fatalf("miss did not recompile: compiles %d -> %d", compilesBefore, compiles)
	}
}
