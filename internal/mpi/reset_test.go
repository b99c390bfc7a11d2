package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// ringTraffic is a fixed deterministic traffic pattern: every rank sends
// r+1 messages to its ring successor, receives from its predecessor, and
// the world finishes with a barrier — blocking and overlapped paths both
// exercised. Every payload received is checked, so a message another run
// left in a mailbox fails the run instead of passing for the one it
// displaced.
func ringTraffic(c *Comm) {
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	for i := 0; i <= c.Rank(); i++ {
		c.Send(next, 7, []float64{float64(c.Rank()), float64(i)})
	}
	c.SendOwned(next, 8, make([]float64, 3+c.Rank()), true)
	for i := 0; i <= prev; i++ {
		if got := c.Recv(prev, 7); len(got) != 2 || got[0] != float64(prev) || got[1] != float64(i) {
			panic(fmt.Sprintf("rank %d: message %d from rank %d reads %v", c.Rank(), i, prev, got))
		}
	}
	if got := c.Recv(prev, 8); len(got) != 3+prev {
		panic(fmt.Sprintf("rank %d: overlapped message from rank %d has %d values, want %d", c.Rank(), prev, len(got), 3+prev))
	}
	waitSends(c)
	c.Barrier()
}

// TestWorldResetBitIdenticalStats is the pooling seam's contract: a
// world that already ran arbitrary other traffic, once Reset, produces
// Stats bit-identical to a freshly constructed world running the same
// pattern.
func TestWorldResetBitIdenticalStats(t *testing.T) {
	const size = 5
	opts := Options{Watchdog: 2 * time.Second}

	fresh := NewWorldOpts(size, opts)
	if err := fresh.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := fresh.Stats()

	reused := NewWorldOpts(size, Options{LinkLatency: 50 * time.Microsecond})
	// Dirty the world with unrelated traffic first.
	if err := reused.RunE(func(c *Comm) {
		c.Send((c.Rank()+1)%size, 9, make([]float64, 100))
		c.Recv((c.Rank()-1+size)%size, 9)
		c.Barrier()
		c.SendOwned((c.Rank()+2)%size, 3, make([]float64, 11), true)
		waitSends(c)
		c.Recv((c.Rank()-2+size)%size, 3)
	}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(reused.Stats(), want) {
		t.Fatal("dirty-run stats unexpectedly equal the reference pattern")
	}

	reused.Reset(opts)
	if got := reused.Stats(); !reflect.DeepEqual(got, Stats{PerRank: make([]RankTraffic, size)}) {
		t.Fatalf("Reset left non-zero stats: %+v", got)
	}
	if err := reused.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if got := reused.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused world stats differ from fresh world:\n got %+v\nwant %+v", got, want)
	}
}

// TestWorldResetAfterAbort: Reset ≡ fresh. A world whose previous run died
// the hard way — under a fault plan, with a message nobody claimed, Isends
// still queued, peers parked in a barrier and the transport reporting the
// loss (World.Fail) — is, once Reset, indistinguishable from a new world:
// no per-run state survives, and the same traffic gives DeepEqual Stats and
// stream positions. The dying run itself must release its barrier waiters
// and report the transport failure, not a secondary teardown panic.
func TestWorldResetAfterAbort(t *testing.T) {
	const size = 4
	dirty := Options{
		LinkLatency: 20 * time.Microsecond,
		Faults: &FaultPlan{
			Seed:  9,
			Links: map[Link]LinkFault{{Src: 2, Dst: 1}: {Delay: 100 * time.Microsecond}},
			Sends: &SendFaults{Rate: 0.9, MaxRetries: 3, Backoff: time.Microsecond},
		},
	}
	clean := Options{Watchdog: 2 * time.Second}
	fabrics := map[string]func(opts Options) *World{
		"channel": func(opts Options) *World { return NewWorldOpts(size, opts) },
		"tcp":     func(opts Options) *World { return newTCPWorldT(t, size, opts) },
	}
	for name, newWorld := range fabrics {
		t.Run(name, func(t *testing.T) {
			w := newWorld(dirty)
			err := w.RunE(func(c *Comm) {
				if c.Rank() != 2 {
					c.Barrier() // never completes: teardown must release it
					return
				}
				c.Send(0, 9, []float64{1, 2, 3})
				for i := 0; i < 8; i++ {
					c.SendOwned(1, 9, make([]float64, 64), true)
				}
				w.Fail(errors.New("injected link loss"))
			})
			if err == nil || !strings.Contains(err.Error(), "transport failure: injected link loss") {
				t.Fatalf("dying run reported %v, want the transport failure", err)
			}

			w.Reset(clean)
			if w.aborted.Load() || w.failure() != nil || w.progress.Load() != 0 || w.blocked.Load() != 0 {
				t.Errorf("Reset left per-run state behind: aborted %v, failure %v, progress %d, blocked %d",
					w.aborted.Load(), w.failure(), w.progress.Load(), w.blocked.Load())
			}
			for i := range w.linkSeqs {
				if n := w.linkSeqs[i].Load(); n != 0 {
					t.Errorf("Reset left link %d→%d at fault sequence %d", i/size, i%size, n)
				}
			}
			fresh := newWorld(clean)
			if got, want := w.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Reset left stats %+v, a new world has %+v", got, want)
			}
			for _, x := range []*World{w, fresh} {
				if err := x.RunE(ringTraffic); err != nil {
					t.Fatalf("ring traffic (reused world first, then fresh): %v", err)
				}
			}
			if got, want := w.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-abort reused world stats differ:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestWorldResetClearsFaultState proves a fault plan attached to one run
// does not leak into the next: the reused world injects nothing after a
// Reset with clean options, and its link sequence counters restart so a
// re-attached plan perturbs the same messages as on a fresh world — also
// on a world born without a plan, which has no counters until then.
func TestWorldResetClearsFaultState(t *testing.T) {
	const size = 3
	plan := &FaultPlan{
		Seed:  42,
		Links: map[Link]LinkFault{{Src: 0, Dst: 1}: {Delay: time.Millisecond, Jitter: time.Millisecond}},
		Sends: &SendFaults{Rate: 0.9, MaxRetries: 3, Backoff: time.Microsecond},
	}
	w := NewWorldOpts(size, Options{Faults: plan})
	if err := w.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if w.Stats().SendRetries == 0 {
		t.Fatal("fault plan injected no retries; the test needs a busier plan")
	}

	w.Reset(Options{})
	if err := w.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().SendRetries; got != 0 {
		t.Fatalf("faults leaked across Reset: %d retries injected", got)
	}

	// Re-attach the same plan on the reused world and on a fresh one: the
	// deterministic per-link sequence numbering must restart identically.
	w.Reset(Options{Faults: plan})
	if err := w.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	fresh := NewWorldOpts(size, Options{Faults: plan})
	if err := fresh.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replanned reused world stats differ from fresh:\n got %+v\nwant %+v", got, want)
	}

	born := NewWorldOpts(size, Options{})
	if born.linkSeqs != nil {
		t.Fatal("a world without a fault plan allocated link sequence counters")
	}
	for _, opts := range []Options{{}, {Faults: plan}} {
		born.Reset(opts)
		if err := born.RunE(ringTraffic); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := born.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("world born fault-free, replanned, differs from fresh:\n got %+v\nwant %+v", got, want)
	}
}

// TestWorldResetWhileActivePanics pins the misuse guard.
func TestWorldResetWhileActivePanics(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.RunE(func(c *Comm) {
			if c.Rank() == 0 {
				close(entered)
			}
			<-release
		})
	}()
	<-entered
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset during an active run did not panic")
			}
		}()
		w.Reset(Options{})
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWorldResetValidatesFaults pins that Reset rejects an invalid plan
// exactly like NewWorldOpts.
func TestWorldResetValidatesFaults(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	bad := &FaultPlan{Sends: &SendFaults{Rate: 2}}
	defer func() {
		if recover() == nil {
			t.Error("Reset accepted an invalid fault plan")
		}
	}()
	w.Reset(Options{Faults: bad})
	_ = fmt.Sprint(bad)
}
