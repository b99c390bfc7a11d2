package serve

import (
	"math"
	"net/http"
	"testing"
	"time"
)

// This file extends PR 5's chaos matrix through the service path: the
// same deterministic fault plans, but injected via the /v1/run JSON
// schema and executed on pooled, Reset worlds. The contract is
// unchanged — a faulted run recovers and produces the fault-free
// checksum bit for bit — and it must hold on the *second* faulted run
// too, when the world comes from the pool instead of fresh.

// chaosCases are the wire-form fault plans, one per fault class.
func chaosCases() map[string]runRequest {
	src := heatSpec(12)
	return map[string]runRequest{
		"link-delay-jitter": {
			Source: src,
			Faults: &faultReq{Seed: 7, Links: []linkFaultReq{
				{Src: 0, Dst: 1, DelayUS: 300, JitterUS: 200},
				{Src: 1, Dst: 0, DelayUS: 300, JitterUS: 200},
			}},
		},
		"transient-sends": {
			Source:  src,
			Overlap: true,
			Faults:  &faultReq{Seed: 7, SendRate: 0.3, SendMaxRetries: 8, SendBackoffUS: 100},
		},
		"crash-restart": {
			Source:          src,
			Faults:          &faultReq{Seed: 7, Crash: map[string]int64{"1": 1}, RestartDelayUS: 500},
			CheckpointEvery: 1,
		},
		"crash-restart-overlap": {
			Source:          src,
			Overlap:         true,
			Faults:          &faultReq{Seed: 7, Crash: map[string]int64{"1": 1, "3": 2}, RestartDelayUS: 500},
			CheckpointEvery: 2,
		},
	}
}

// TestChaosThroughServer replays every fault class twice against one
// server: round 0 on a fresh world, round 1 on the pooled world the
// previous faulted (possibly crashed-and-restarted) run dirtied.
func TestChaosThroughServer(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{})
	src := heatSpec(12)

	// Fault-free reference checksum through the same server.
	resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d %s", resp.StatusCode, body)
	}
	want := decode[runResponse](t, body).Checksum

	for name, req := range chaosCases() {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 2; round++ {
				resp, body := postJSON(t, client, ts.URL+"/v1/run", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d: %d %s", round, resp.StatusCode, body)
				}
				if sum := decode[runResponse](t, body).Checksum; sum != want {
					t.Fatalf("round %d: checksum %s, want fault-free %s", round, sum, want)
				}
			}
		})
	}
	if created, reused := s.worlds.stats(); reused == 0 {
		t.Fatalf("worlds created=%d reused=%d — pooled path never exercised", created, reused)
	}
}

// TestCrashWithoutCheckpointFails checks the failure path end to end: a
// crash with no checkpointing aborts the run with a 500, and the world
// that aborted is still safely pooled — the next clean run on it agrees
// with the reference.
func TestCrashWithoutCheckpointFails(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})
	src := heatSpec(12)

	resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d %s", resp.StatusCode, body)
	}
	want := decode[runResponse](t, body).Checksum

	resp, body = postJSON(t, client, ts.URL+"/v1/run", runRequest{
		Source: src,
		Faults: &faultReq{Seed: 3, Crash: map[string]int64{"1": 0}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("crash without checkpoint: %d %s, want 500", resp.StatusCode, body)
	}

	// The aborted world went back to the pool; Reset must make the next
	// run on it indistinguishable from a fresh world.
	resp, body = postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after abort: %d %s", resp.StatusCode, body)
	}
	if sum := decode[runResponse](t, body).Checksum; sum != want {
		t.Fatalf("run after abort: checksum %s, want %s", sum, want)
	}
}

// TestBadFaultPlanRejected checks request validation at the serve
// boundary: a malformed plan, and a well-formed one whose injected sleeps
// would park an admitted run slot (days of restart outage, link delay or
// retry backoff, an absurd slowdown), is a 400 — not a run that explodes, or
// never ends, later.
func TestBadFaultPlanRejected(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})

	const day = int64(24 * time.Hour / time.Microsecond)
	for name, f := range map[string]*faultReq{
		"rate 2.0":         {Seed: 1, SendRate: 2.0},
		"bad crash rank":   {Seed: 1, Crash: map[string]int64{"one": 1}},
		"restart outage":   {Crash: map[string]int64{"1": 1}, RestartDelayUS: 3 * day},
		"restart overflow": {Crash: map[string]int64{"1": 1}, RestartDelayUS: math.MaxInt64},
		"link delay":       {Links: []linkFaultReq{{Src: 0, Dst: 1, DelayUS: day}}},
		"link jitter":      {Links: []linkFaultReq{{Src: 0, Dst: 1, JitterUS: maxFaultSleepUS + 1}}},
		"backoff":          {SendRate: 0.5, SendMaxRetries: 1, SendBackoffUS: day},
		"backoff doubling": {SendRate: 0.5, SendMaxRetries: 30, SendBackoffUS: 100}, // 100 us · 2^30 ≈ 30 h
		"backoff overflow": {SendRate: 0.5, SendMaxRetries: math.MaxInt32, SendBackoffUS: math.MaxInt64},
		"slowdown":         {Slowdown: map[int]float64{1: 1e12}},
		"slowdown +Inf":    {Slowdown: map[int]float64{1: math.Inf(1)}},
	} {
		if name == "slowdown +Inf" {
			// JSON cannot carry +Inf; the bound is checked on the decoded plan.
			if _, err := f.plan(); err == nil {
				t.Errorf("%s: plan accepted", name)
			}
			continue
		}
		resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{
			Source: heatSpec(12), CheckpointEvery: 1, Faults: f,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, resp.StatusCode, body)
		}
	}

	// The limits themselves are admitted.
	resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{
		Source: heatSpec(12), CheckpointEvery: 1,
		Faults: &faultReq{Crash: map[string]int64{"1": 1}, RestartDelayUS: maxFaultSleepUS, Slowdown: map[int]float64{0: maxSlowdown}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("plan at the limits: %d %s, want 200", resp.StatusCode, body)
	}
}
