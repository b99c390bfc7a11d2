package wirecheck

import (
	"strings"
	"testing"
	"time"

	"tilespace/internal/mpi"
)

// TestMatrixCertifies is the standing certificate: every matrix entry
// must exhaust its state space with zero violations, and the whole
// matrix must finish fast enough for CI (the acceptance bound is 60s;
// we assert well under it).
func TestMatrixCertifies(t *testing.T) {
	start := time.Now()
	for _, mc := range DefaultMatrix() {
		mc := mc
		t.Run(mc.Name, func(t *testing.T) {
			res := Check(mc.Cfg)
			if res.Violation != nil {
				t.Fatalf("protocol violation:\n%s", res.Violation)
			}
			if res.Truncated {
				t.Fatalf("state space truncated at %d states — shrink the config or raise MaxStates", res.States)
			}
			if res.States < 100 {
				t.Fatalf("only %d states explored — config too trivial to certify anything", res.States)
			}
			t.Logf("certified: %d states, %d transitions", res.States, res.Transitions)
		})
	}
	if el := time.Since(start); el > 45*time.Second {
		t.Fatalf("matrix took %v, budget is 45s (acceptance bound 60s)", el)
	}
}

// TestMutationsRejected proves every decision point is load-bearing:
// each seeded protocol bug must produce a concrete counterexample.
func TestMutationsRejected(t *testing.T) {
	wantInvariant := map[string]string{
		"dedup-removed":        "no-dup",
		"resend-off-by-one":    "no-loss",
		"over-suppress":        "no-loss",
		"epoch-filter-dropped": "reset-safety",
		"split-delivery":       "reset-safety",
	}
	for _, m := range Mutations() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			res := Check(m.Cfg)
			if res.Violation == nil {
				t.Fatalf("mutation certified cleanly over %d states — the protocol core no longer depends on this decision", res.States)
			}
			if want := wantInvariant[m.Name]; res.Violation.Invariant != want {
				t.Fatalf("violated %q, want %q:\n%s", res.Violation.Invariant, want, res.Violation)
			}
			if len(res.Violation.Steps) == 0 {
				t.Fatalf("counterexample has no steps")
			}
			t.Logf("rejected with %d-step counterexample:\n%s", len(res.Violation.Steps), res.Violation)
		})
	}
}

// TestCounterexampleIsMinimalAndConcrete pins the shape of the trace
// for the simplest mutation: BFS must find a shortest path, and every
// step must be a readable event naming ranks, tags and sequences.
func TestCounterexampleIsMinimalAndConcrete(t *testing.T) {
	res := Check(Config{
		Ranks:   2,
		Links:   []Link{{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 1}},
		MaxDups: 1,
		Rules:   mpi.ProtocolRules{NoDedup: true},
	})
	if res.Violation == nil {
		t.Fatalf("NoDedup certified cleanly")
	}
	// Shortest possible: connect, send, duplicate-deliver, deliver (or
	// deliver then duplicate) — 4 events.
	if got := len(res.Violation.Steps); got != 4 {
		t.Fatalf("counterexample has %d steps, want the minimal 4:\n%s", got, res.Violation)
	}
	text := res.Violation.String()
	for _, frag := range []string{"no-dup", "consumed twice", "reconnects", "sends msg"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("trace missing %q:\n%s", frag, text)
		}
	}
}

// TestSplitDeliveryTraceIsMinimal pins the counterexample that makes
// acceptData one critical section: connect, send, a verdict under the old
// epoch, the reset, and the put that lands the dead frame in the new run.
func TestSplitDeliveryTraceIsMinimal(t *testing.T) {
	var cfg Config
	for _, m := range Mutations() {
		if m.Name == "split-delivery" {
			cfg = m.Cfg
		}
	}
	res := Check(cfg)
	if res.Violation == nil || res.Violation.Invariant != "reset-safety" {
		t.Fatalf("split delivery not rejected under reset-safety: %+v", res.Violation)
	}
	// The connect and the send come first, in either order.
	want := []string{"", "", "delivers frame", "epoch reset", "puts accepted frame"}
	steps := res.Violation.Steps
	if len(steps) != len(want) {
		t.Fatalf("counterexample has %d steps, want the minimal %d:\n%s", len(steps), len(want), res.Violation)
	}
	for i, frag := range want {
		if !strings.Contains(steps[i].Event, frag) {
			t.Fatalf("step %d is %q, want it to mention %q:\n%s", i+1, steps[i].Event, frag, res.Violation)
		}
	}
	if opening := steps[0].Event + steps[1].Event; !strings.Contains(opening, "reconnects") || !strings.Contains(opening, "sends msg 0") {
		t.Fatalf("counterexample does not open with the connect and the send:\n%s", res.Violation)
	}
	// The same configuration with delivery atomic — the shipped transport
	// — certifies.
	cfg.SplitDelivery = false
	if res := Check(cfg); !res.Ok() {
		t.Fatalf("atomic delivery failed the split-delivery configuration:\n%v", res.Violation)
	}
}

// TestGapIsLossNotReorder: with no faults at all, a correct run
// certifies trivially.
func TestFaultFreeRunCertifies(t *testing.T) {
	res := Check(Config{
		Ranks: 2,
		Links: []Link{{Src: 0, Dst: 1, Tags: []int{0, 1}, Msgs: 2}},
	})
	if !res.Ok() {
		t.Fatalf("fault-free run failed: %+v", res.Violation)
	}
}

// TestTruncationReported: a too-small MaxStates yields a truncated,
// non-Ok result rather than a false certificate.
func TestTruncationReported(t *testing.T) {
	res := Check(Config{
		Ranks:    2,
		Links:    []Link{{Src: 0, Dst: 1, Tags: []int{0, 1}, Msgs: 3}},
		MaxDrops: 2,
		MaxDups:  2,
		// Force truncation.
		MaxStates: 50,
	})
	if !res.Truncated {
		t.Fatalf("expected truncation at MaxStates=50, explored %d states", res.States)
	}
	if res.Ok() {
		t.Fatalf("truncated result must not read as a certificate")
	}
}

// TestCrashWithoutCheckpointReplays: scratch relaunch means the whole
// conversation replays; dedup and suppression must absorb it. This is
// the "SIGKILLed tilerankd relaunches bit-identically" scenario from
// PR 8, now proved instead of sampled.
func TestCrashWithoutCheckpointReplays(t *testing.T) {
	res := Check(Config{
		Ranks:      2,
		Links:      []Link{{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 2}},
		CrashRanks: []int{0},
	})
	if !res.Ok() {
		t.Fatalf("scratch-relaunch run failed:\n%v", res.Violation)
	}
	if res.States < 50 {
		t.Fatalf("suspiciously small space (%d states) — crash events likely not explored", res.States)
	}
}
