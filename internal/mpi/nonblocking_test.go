package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestIsendWaitDelivers(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	var got []float64
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 7, []float64{1, 2, 3}, true)
			waitSends(c)
			// The wait must be idempotent, and the wire clock agree with it.
			waitSends(c)
			if due := wireDue(c); time.Now().Before(due) {
				t.Errorf("send due at %v after every send is due", due)
			}
		} else {
			got = c.Recv(0, 7)
		}
	})
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestIsendFIFOOrdering(t *testing.T) {
	const n = 200
	w := NewWorldOpts(2, Options{})
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.SendOwned(1, 3, []float64{float64(i)}, true)
			}
			waitSends(c)
		} else {
			for i := 0; i < n; i++ {
				if v := c.Recv(0, 3); v[0] != float64(i) {
					t.Errorf("message %d carries %v", i, v[0])
					return
				}
			}
		}
	})
}

func TestStatsCountOverlappedVsBlocking(t *testing.T) {
	w := NewWorldOpts(3, Options{})
	runRanks(t, w, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, []float64{1, 2})
			c.SendOwned(2, 1, []float64{3}, true)
			waitSends(c)
		case 1:
			c.SendOwned(2, 2, []float64{4, 5, 6}, true)
			waitSends(c)
		case 2:
			c.Recv(0, 1)
			c.Recv(0, 1)
			c.Recv(1, 2)
		}
	})
	st := w.Stats()
	if st.Messages != 3 || st.Values != 6 {
		t.Fatalf("Messages=%d Values=%d", st.Messages, st.Values)
	}
	if st.BlockingSends != 1 || st.OverlappedSends != 2 {
		t.Fatalf("BlockingSends=%d OverlappedSends=%d", st.BlockingSends, st.OverlappedSends)
	}
	if len(st.PerRank) != 3 {
		t.Fatalf("PerRank len %d", len(st.PerRank))
	}
	if st.PerRank[0].BlockingSends != 1 || st.PerRank[0].OverlappedSends != 1 || st.PerRank[0].Values != 3 {
		t.Errorf("rank 0 traffic %+v", st.PerRank[0])
	}
	if st.PerRank[1].OverlappedSends != 1 || st.PerRank[1].Values != 3 {
		t.Errorf("rank 1 traffic %+v", st.PerRank[1])
	}
	if st.PerRank[2] != (RankTraffic{Recvs: 3, ValuesRecvd: 6}) {
		t.Errorf("rank 2 traffic %+v, want receive-only counts", st.PerRank[2])
	}
	if st.Recvs != 3 || st.ValuesRecvd != 6 {
		t.Errorf("Recvs=%d ValuesRecvd=%d, want 3 and 6", st.Recvs, st.ValuesRecvd)
	}
}

func TestUnwaitedIsendStillDelivered(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	var got atomic.Bool
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 0, []float64{1}, true) // never waited for; with the transport once issued
		} else {
			c.Recv(0, 0)
			got.Store(true)
		}
	})
	if !got.Load() {
		t.Fatal("message lost")
	}
	if st := w.Stats(); st.OverlappedSends != 1 {
		t.Fatalf("OverlappedSends = %d", st.OverlappedSends)
	}
}

// TestWatchdogMistaggedRecv is the deadlock-watchdog contract: a receive
// that can never match must fail within the timeout with a diagnostic
// naming the stuck rank, source and tag — not hang the suite.
func TestWatchdogMistaggedRecv(t *testing.T) {
	w := NewWorldOpts(2, Options{Watchdog: 100 * time.Millisecond})
	start := time.Now()
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1})
		} else {
			c.Recv(0, 7) // wrong tag: sender used 3
		}
	})
	if err == nil {
		t.Fatal("mis-tagged receive did not fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	for _, want := range []string{"watchdog", "rank 1", "src=0", "tag=7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q missing %q", err, want)
		}
	}
}

// TestWatchdogAbortsPeers: when one rank trips the watchdog, ranks blocked
// in unrelated receives are torn down promptly instead of deadlocking.
func TestWatchdogAbortsPeers(t *testing.T) {
	w := NewWorldOpts(3, Options{Watchdog: 100 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		done <- w.RunE(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Recv(1, 0) // never sent: trips the watchdog
			case 1:
				c.Recv(2, 0) // waits on rank 2, which never sends either
			case 2:
				c.Recv(0, 0)
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Fatalf("err = %v, want watchdog diagnostic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("world did not tear down after watchdog")
	}
}

func TestWatchdogQuietWhenMatched(t *testing.T) {
	w := NewWorldOpts(2, Options{Watchdog: 5 * time.Second})
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // matched, just late
			c.Send(1, 0, []float64{1})
		} else {
			if v := c.Recv(0, 0); v[0] != 1 {
				t.Errorf("got %v", v)
			}
		}
	})
}

// TestWatchdogSurvivesSlowCompute: a receiver parked far longer than the
// watchdog while its upstream rank is in a long compute phase is pipeline
// fill, not deadlock — the progress-aware watchdog must let it ride.
func TestWatchdogSurvivesSlowCompute(t *testing.T) {
	w := NewWorldOpts(2, Options{Watchdog: 30 * time.Millisecond})
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				time.Sleep(120 * time.Millisecond) // "compute" ≫ watchdog
				c.Send(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 3; i++ {
				if v := c.Recv(0, 0); v[0] != float64(i) {
					t.Errorf("msg %d: got %v", i, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("healthy slow-compute run tripped the watchdog: %v", err)
	}
}

// TestWatchdogSurvivesSlowWire: a receiver waiting for a message that is
// still paying its wire cost, while its sender waits for it to be due, is
// progress in flight, not deadlock.
func TestWatchdogSurvivesSlowWire(t *testing.T) {
	w := NewWorldOpts(2, Options{Watchdog: 20 * time.Millisecond, LinkLatency: 150 * time.Millisecond})
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 0, []float64{1}, true)
			waitSends(c)
		} else {
			if v := c.Recv(0, 0); v[0] != 1 {
				t.Errorf("got %v", v)
			}
		}
	})
	if err != nil {
		t.Fatalf("in-flight transfer tripped the watchdog: %v", err)
	}
}

// TestWaitOnWireQuietWatchdog: a rank whose only wait is for heads not yet
// due is not parked, so a 5 ms watchdog never fires while every other rank
// sits in a blocking receive and nothing is delivered.
func TestWaitOnWireQuietWatchdog(t *testing.T) {
	const msgs = 3
	w := NewWorldOpts(2, Options{Watchdog: 5 * time.Millisecond, LinkLatency: 40 * time.Millisecond})
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.SendOwned(1, 0, []float64{float64(i)}, true)
			}
			c.Recv(1, 1) // parked until rank 1 has every message
		} else {
			for i := 0; i < msgs; i++ {
				if v := c.Recv(0, 0); v[0] != float64(i) {
					t.Errorf("message %d carries %v", i, v[0])
				}
			}
			c.Send(0, 1, nil)
		}
	})
	if err != nil {
		t.Fatalf("waits on the wire tripped the watchdog: %v", err)
	}
}

// TestAbortWakesWaitOnWire: a peer's panic wakes a rank waiting for a head
// due far in the future, and RunE reports the peer's own diagnostic at
// once instead of waiting out the wire cost.
func TestAbortWakesWaitOnWire(t *testing.T) {
	w := NewWorldOpts(2, Options{LinkLatency: 10 * time.Second})
	start := time.Now()
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 0, []float64{1}, true)
			time.Sleep(20 * time.Millisecond) // rank 1 is waiting on the head
			panic("sender lost")
		}
		c.Recv(0, 0)
		t.Error("claimed a message ten seconds before it is due")
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: sender lost") {
		t.Fatalf("err = %v, want rank 0's diagnostic", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("RunE took %v to return after the panic", elapsed)
	}
}

func TestInjectedWireCostBlockingVsOverlap(t *testing.T) {
	const msgs = 8
	const lat = 10 * time.Millisecond
	run := func(overlap bool) time.Duration {
		w := NewWorldOpts(2, Options{LinkLatency: lat})
		start := time.Now()
		var senderBusy time.Duration
		runRanks(t, w, func(c *Comm) {
			if c.Rank() == 0 {
				t0 := time.Now()
				for i := 0; i < msgs; i++ {
					if overlap {
						c.SendOwned(1, 0, []float64{1}, true)
					} else {
						c.Send(1, 0, []float64{1})
					}
				}
				senderBusy = time.Since(t0) // before the wait: the compute window
				waitSends(c)
			} else {
				for i := 0; i < msgs; i++ {
					c.Recv(0, 0)
				}
			}
		})
		_ = time.Since(start)
		return senderBusy
	}
	blocking := run(false)
	overlapped := run(true)
	// Blocking pays msgs×lat on the sender's CPU path; Isend returns
	// immediately, so the sender's issue loop must be far faster.
	if blocking < msgs*lat/2 {
		t.Errorf("blocking sender busy only %v, want ≳%v", blocking, msgs*lat)
	}
	if overlapped > blocking/2 {
		t.Errorf("overlapped sender busy %v, not hidden vs blocking %v", overlapped, blocking)
	}
}
