package mpi

// Race-focused coverage: every test here drives the runtime from many
// goroutines at once and is meant to run under -race in CI. The point is
// not the arithmetic but the interleavings — concurrent Send/Recv on one
// mailbox, Isend traffic racing blocking traffic on other streams,
// wire-clock polling racing delivery, and Stats reads racing in-flight
// sends.

import (
	"sync"
	"testing"
	"time"
)

// TestRaceConcurrentStreams: each rank runs several worker goroutines,
// all sending and receiving concurrently on disjoint (src, tag) streams.
func TestRaceConcurrentStreams(t *testing.T) {
	const (
		ranks   = 4
		workers = 4
		msgs    = 25
	)
	w := NewWorldOpts(ranks, Options{})
	runRanks(t, w, func(c *Comm) {
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for dst := 0; dst < ranks; dst++ {
					if dst == c.Rank() {
						continue
					}
					for i := 0; i < msgs; i++ {
						c.Send(dst, wk, []float64{float64(i)})
					}
				}
			}(wk)
		}
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for src := 0; src < ranks; src++ {
					if src == c.Rank() {
						continue
					}
					for i := 0; i < msgs; i++ {
						if v := c.Recv(src, wk); v[0] != float64(i) {
							t.Errorf("stream (%d,%d): message %d carries %v", src, wk, i, v[0])
							return
						}
					}
				}
			}(wk)
		}
		wg.Wait()
	})
	want := int64(ranks * (ranks - 1) * workers * msgs)
	if st := w.Stats(); st.Messages != want {
		t.Fatalf("Messages = %d, want %d", st.Messages, want)
	}
}

// TestRaceIsendWaitConcurrent: many goroutines per rank issue overlapped
// sends and wait on the rank's one wire clock while the receiver drains
// every stream concurrently.
func TestRaceIsendWaitConcurrent(t *testing.T) {
	const (
		senders = 6
		msgs    = 30
	)
	w := NewWorldOpts(2, Options{})
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						c.SendOwned(1, s, []float64{float64(s*msgs + i)}, true)
					}
					waitSends(c)
				}(s)
			}
			wg.Wait()
		} else {
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sum := 0.0
					for i := 0; i < msgs; i++ {
						sum += c.Recv(0, s)[0]
					}
					base := float64(s * msgs)
					want := base*msgs + float64(msgs*(msgs-1)/2)
					if sum != want {
						t.Errorf("stream %d: sum %v, want %v", s, sum, want)
					}
				}(s)
			}
			wg.Wait()
		}
	})
	if st := w.Stats(); st.OverlappedSends != senders*msgs {
		t.Fatalf("OverlappedSends = %d, want %d", st.OverlappedSends, senders*msgs)
	}
}

// TestRaceTestPollingVsDelivery: the sender spins on its wire clock while its
// message reaches a receiver blocked in Recv — exercises the wire clock and
// the take path against concurrent put.
func TestRaceTestPollingVsDelivery(t *testing.T) {
	const rounds = 50
	w := NewWorldOpts(2, Options{})
	runRanks(t, w, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				if v := c.Recv(1, 0); v[0] != float64(i) {
					t.Errorf("round %d got %v", i, v[0])
				}
				c.Send(1, 1, nil) // ack, keeps rounds in lockstep
			} else {
				c.SendOwned(0, 0, []float64{float64(i)}, true)
				for time.Now().Before(wireDue(c)) {
				}
				c.Recv(0, 1)
			}
		}
	})
}

// TestRaceStatsDuringTraffic: Stats() is read concurrently with sends in
// flight; counters must be torn-read-safe (atomics), values only grow.
func TestRaceStatsDuringTraffic(t *testing.T) {
	const msgs = 200
	w := NewWorldOpts(2, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := w.Stats()
			if st.Messages < last {
				t.Error("Messages went backwards")
				return
			}
			last = st.Messages
		}
	}()
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if i%2 == 0 {
					c.Send(1, 0, []float64{1})
				} else {
					c.SendOwned(1, 0, []float64{1}, true) // unwaited: with the transport once issued
				}
			}
		} else {
			for i := 0; i < msgs; i++ {
				c.Recv(0, 0)
			}
		}
	})
	close(stop)
	wg.Wait()
	if st := w.Stats(); st.Messages != msgs {
		t.Fatalf("Messages = %d, want %d", st.Messages, msgs)
	}
}
