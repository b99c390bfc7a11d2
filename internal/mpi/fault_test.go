package mpi

import (
	"reflect"
	"testing"
	"time"
)

// The fault layer's whole value is determinism: equal plans must perturb
// equal traffic identically, retries must never leak into the traffic
// counters, and injected stalls must never trip the watchdog. These tests
// pin each of those contracts at the runtime level, below the executor.

func TestFaultPlanDecisionsDeterministic(t *testing.T) {
	fp := &FaultPlan{
		Seed:  42,
		Links: map[Link]LinkFault{{0, 1}: {Delay: time.Millisecond, Jitter: time.Millisecond}},
		Sends: &SendFaults{Rate: 0.5, MaxRetries: 4, Backoff: 100 * time.Microsecond},
	}
	same := &FaultPlan{
		Seed:  42,
		Links: map[Link]LinkFault{{0, 1}: {Delay: time.Millisecond, Jitter: time.Millisecond}},
		Sends: &SendFaults{Rate: 0.5, MaxRetries: 4, Backoff: 100 * time.Microsecond},
	}
	other := &FaultPlan{
		Seed:  43,
		Links: map[Link]LinkFault{{0, 1}: {Delay: time.Millisecond, Jitter: time.Millisecond}},
		Sends: &SendFaults{Rate: 0.5, MaxRetries: 4, Backoff: 100 * time.Microsecond},
	}
	var diffDelay, diffBackoff bool
	for seq := int64(0); seq < 64; seq++ {
		d := fp.LinkExtraDelay(0, 1, seq)
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("seq %d: delay %v outside [Delay, Delay+Jitter)", seq, d)
		}
		if got := same.LinkExtraDelay(0, 1, seq); got != d {
			t.Fatalf("seq %d: equal plans disagree on delay: %v vs %v", seq, d, got)
		}
		if other.LinkExtraDelay(0, 1, seq) != d {
			diffDelay = true
		}
		b := fp.SendBackoffs(0, 1, seq)
		if len(b) > 4 {
			t.Fatalf("seq %d: %d backoffs exceed MaxRetries", seq, len(b))
		}
		for i, bi := range b {
			if want := 100 * time.Microsecond << i; bi != want {
				t.Fatalf("seq %d attempt %d: backoff %v, want %v (exponential)", seq, i, bi, want)
			}
		}
		if got := same.SendBackoffs(0, 1, seq); !reflect.DeepEqual(got, b) {
			t.Fatalf("seq %d: equal plans disagree on backoffs: %v vs %v", seq, b, got)
		}
		if len(other.SendBackoffs(0, 1, seq)) != len(b) {
			diffBackoff = true
		}
	}
	if !diffDelay || !diffBackoff {
		t.Fatalf("seed change never altered a decision (delay varied: %v, backoff varied: %v) — hash is not consuming the seed", diffDelay, diffBackoff)
	}
	// Unconfigured links and nil plans inject nothing.
	if fp.LinkExtraDelay(1, 0, 0) != 0 {
		t.Fatal("unconfigured link got a delay")
	}
	var nilPlan *FaultPlan
	if nilPlan.LinkExtraDelay(0, 1, 0) != 0 || nilPlan.SendBackoffs(0, 1, 0) != nil ||
		nilPlan.SlowdownOf(0) != 1 || nilPlan.CrashTile(0) != -1 || nilPlan.Validate() != nil {
		t.Fatal("nil plan must be a no-op")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []*FaultPlan{
		{Sends: &SendFaults{Rate: 1.5, MaxRetries: 3, Backoff: time.Millisecond}},
		{Sends: &SendFaults{Rate: 0.5}},
		{Crash: map[int]int64{-1: 0}},
		{Crash: map[int]int64{0: -2}},
	}
	for i, fp := range bad {
		if fp.Validate() == nil {
			t.Errorf("plan %d validated but is invalid: %+v", i, fp)
		}
	}
	ok := &FaultPlan{
		Slowdown: map[int]float64{1: 3},
		Sends:    &SendFaults{Rate: 0.2, MaxRetries: 3, Backoff: time.Millisecond},
		Crash:    map[int]int64{2: 5},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if ok.SlowdownOf(1) != 3 || ok.SlowdownOf(0) != 1 || ok.CrashTile(2) != 5 || ok.CrashTile(0) != -1 {
		t.Fatal("plan accessors disagree with the plan")
	}
}

// exchange runs a fixed 2-rank ping-stream program under opts and returns
// the world's Stats and the receiver's last payload.
func exchange(t *testing.T, opts Options, n int, overlap bool) (Stats, float64) {
	t.Helper()
	w := NewWorldOpts(2, opts)
	var last float64
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if overlap {
					c.SendOwned(1, 3, []float64{float64(i), float64(i)}, true)
				} else {
					c.Send(1, 3, []float64{float64(i), float64(i)})
				}
			}
			waitSends(c)
		} else {
			for i := 0; i < n; i++ {
				last = c.Recv(0, 3)[0]
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Stats(), last
}

// TestFaultRetriesKeepStatsDeterministic is the no-double-counting
// contract: a run with transient send failures must report exactly the
// traffic of a fault-free run (a message is counted once, when issued),
// plus a SendRetries count that is itself reproducible.
func TestFaultRetriesKeepStatsDeterministic(t *testing.T) {
	plan := func() *FaultPlan {
		return &FaultPlan{
			Seed:  7,
			Links: map[Link]LinkFault{{0, 1}: {Delay: 20 * time.Microsecond, Jitter: 50 * time.Microsecond}},
			Sends: &SendFaults{Rate: 0.6, MaxRetries: 5, Backoff: 10 * time.Microsecond},
		}
	}
	for _, overlap := range []bool{false, true} {
		clean, lastClean := exchange(t, Options{}, 40, overlap)
		f1, last1 := exchange(t, Options{Faults: plan()}, 40, overlap)
		f2, last2 := exchange(t, Options{Faults: plan()}, 40, overlap)
		if last1 != lastClean || last2 != lastClean {
			t.Fatalf("overlap=%v: payloads diverged under faults", overlap)
		}
		if f1.SendRetries == 0 {
			t.Fatalf("overlap=%v: rate 0.6 over 40 messages injected no retries — injection not reached", overlap)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("overlap=%v: two identical faulty runs disagree\n%+v\n%+v", overlap, f1, f2)
		}
		// Erase the (identical) retry counters and the faulty run must be
		// byte-for-byte the clean run: no message or value counted twice.
		f1.SendRetries = 0
		for i := range f1.PerRank {
			f1.PerRank[i].SendRetries = 0
		}
		if !reflect.DeepEqual(clean, f1) {
			t.Fatalf("overlap=%v: faulty traffic differs from clean traffic\nclean: %+v\nfault: %+v", overlap, clean, f1)
		}
	}
}

// TestWatchdogSurvivesInjectedFaults is the watchdog/fault interplay
// regression (mpi level): a healthy run whose every message is on the wire
// far longer than the watchdog period must finish, because a wait for a
// message not yet due is wire activity, never a parked rank.
func TestWatchdogSurvivesInjectedFaults(t *testing.T) {
	fp := &FaultPlan{
		Seed:  1,
		Links: map[Link]LinkFault{{0, 1}: {Delay: 15 * time.Millisecond}},
		Sends: &SendFaults{Rate: 0.9, MaxRetries: 4, Backoff: 8 * time.Millisecond},
	}
	for _, overlap := range []bool{false, true} {
		_, last := exchange(t, Options{Watchdog: 5 * time.Millisecond, Faults: fp}, 6, overlap)
		if last != 5 {
			t.Fatalf("overlap=%v: run finished with wrong payload %v", overlap, last)
		}
	}
}
