package mpi

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPingPong(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	var got atomic.Value
	runRanks(t, w, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{1, 2, 3})
			reply := c.Recv(1, 8)
			got.Store(reply)
		case 1:
			data := c.Recv(0, 7)
			for i := range data {
				data[i] *= 10
			}
			c.Send(0, 8, data)
		}
	})
	reply := got.Load().([]float64)
	if len(reply) != 3 || reply[0] != 10 || reply[2] != 30 {
		t.Errorf("reply = %v", reply)
	}
	st := w.Stats()
	if st.Messages != 2 || st.Values != 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the message
		} else {
			if got := c.Recv(0, 0); got[0] != 42 {
				t.Errorf("received %v, want [42]", got)
			}
		}
	})
}

// TestFIFOOrdering: messages on one (src, tag) stream arrive in send order.
func TestFIFOOrdering(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	const n = 200
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 5)[0]; got != float64(i) {
					t.Errorf("message %d arrived as %v", i, got)
					return
				}
			}
		}
	})
}

// TestTagSelectivity: a receive for tag B is not satisfied by a tag-A
// message even if it arrived first.
func TestTagSelectivity(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			if got := c.Recv(0, 2)[0]; got != 2 {
				t.Errorf("tag 2 recv = %v", got)
			}
			if got := c.Recv(0, 1)[0]; got != 1 {
				t.Errorf("tag 1 recv = %v", got)
			}
		}
	})
}

// TestMailboxAgainstModel drives one rank's mailbox with random traffic and
// checks it against the obvious model, a slice per stream: ranks 1..senders
// each feed rank 0 on several tags at once while rank 0 drains every stream
// with Recv from its own goroutine. The i-th message claimed from a stream
// must be the i-th one sent on it (per-stream FIFO, source and tag
// selectivity), and once drained the mailbox must hold no payload.
func TestMailboxAgainstModel(t *testing.T) {
	const (
		senders = 3
		tags    = 3
		msgs    = 400
	)
	rng := rand.New(rand.NewSource(1))
	type key struct{ src, tag int }
	model := map[key][][]float64{}
	for src := 1; src <= senders; src++ {
		for tag := 0; tag < tags; tag++ {
			k := key{src, tag}
			for i := 0; i < msgs; i++ {
				model[k] = append(model[k], []float64{float64(src), float64(tag), float64(i), rng.Float64()})
			}
		}
	}
	w := NewWorldOpts(senders+1, Options{})
	runRanks(t, w, func(c *Comm) {
		var wg sync.WaitGroup
		defer wg.Wait()
		for tag := 0; tag < tags; tag++ {
			if src := c.Rank(); src != 0 {
				wg.Add(1)
				go func(k key) {
					defer wg.Done()
					for _, m := range model[k] {
						c.Send(0, k.tag, m)
						runtime.Gosched()
					}
				}(key{src, tag})
				continue
			}
			for src := 1; src <= senders; src++ {
				wg.Add(1)
				go func(k key) {
					defer wg.Done()
					for i, want := range model[k] {
						if got := c.Recv(k.src, k.tag); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
							t.Errorf("stream %v: claim %d is %v, want %v", k, i, got, want)
							return
						}
					}
				}(key{src, tag})
			}
		}
	})
	if t.Failed() {
		return
	}
	mb := w.boxes[0]
	if len(mb.queues) != senders*tags {
		t.Errorf("mailbox holds %d streams, want %d", len(mb.queues), senders*tags)
	}
	for k, s := range mb.queues {
		if s.head != len(s.queue) {
			t.Errorf("stream %v: %d of %d messages unclaimed", k, len(s.queue)-s.head, msgs)
		}
		for i, m := range s.queue[:cap(s.queue)] {
			if m.Data != nil {
				t.Errorf("stream %v: consumed slot %d still holds its payload", k, i)
			}
		}
	}
}

// TestStreamBoundedUnderSteadyLag: a stream whose receiver stays one message
// behind never drains, and must still not grow with the messages passed
// through it.
func TestStreamBoundedUnderSteadyLag(t *testing.T) {
	w := NewWorldOpts(1, Options{})
	runRanks(t, w, func(c *Comm) {
		c.Send(0, 0, []float64{0})
		for i := 1; i <= 10000; i++ {
			c.Send(0, 0, []float64{float64(i)})
			if got := c.Recv(0, 0)[0]; got != float64(i-1) {
				t.Errorf("message %d arrived as %v", i-1, got)
				return
			}
		}
	})
	if n := cap(w.boxes[0].queues[Stream{0, 0, 0}].queue); n > 8 {
		t.Errorf("a stream never holding more than 2 messages grew to %d slots", n)
	}
}

func TestRing(t *testing.T) {
	const p = 8
	w := NewWorldOpts(p, Options{})
	sums := make([]float64, p)
	runRanks(t, w, func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		c.Send(next, 3, []float64{float64(c.Rank())}) // eager, so no ring deadlock
		token := c.Recv(prev, 3)
		sums[c.Rank()] = token[0]
	})
	for r := 0; r < p; r++ {
		want := float64((r - 1 + p) % p)
		if sums[r] != want {
			t.Errorf("rank %d got token %v, want %v", r, sums[r], want)
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	const p = 6
	w := NewWorldOpts(p, Options{})
	var phase1 atomic.Int32
	fail := atomic.Bool{}
	runRanks(t, w, func(c *Comm) {
		phase1.Add(1)
		c.Barrier()
		if int(phase1.Load()) != p {
			fail.Store(true)
		}
		c.Barrier()
	})
	if fail.Load() {
		t.Error("some rank passed the barrier before all entered")
	}
	if st := w.Stats(); !reflect.DeepEqual(st, Stats{PerRank: make([]RankTraffic, p)}) {
		t.Errorf("barriers left traffic in Stats: %+v", st)
	}
}

func TestManyToOneStress(t *testing.T) {
	const p = 8
	const msgs = 100
	w := NewWorldOpts(p, Options{})
	var total atomic.Int64
	runRanks(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			sum := 0.0
			for src := 1; src < p; src++ {
				for i := 0; i < msgs; i++ {
					sum += c.Recv(src, 9)[0]
				}
			}
			total.Store(int64(sum))
		} else {
			for i := 0; i < msgs; i++ {
				c.Send(0, 9, []float64{1})
			}
		}
	})
	if total.Load() != (p-1)*msgs {
		t.Errorf("total = %d", total.Load())
	}
}

func TestRankPanics(t *testing.T) {
	w := NewWorldOpts(2, Options{})
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier() // must be poisoned, not deadlock
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked: boom") {
		t.Fatalf("RunE returned %v, want rank 1's panic", err)
	}
}

func TestInvalidUsePanics(t *testing.T) {
	w := NewWorldOpts(1, Options{})
	cases := map[string]func(c *Comm){
		"negative tag send": func(c *Comm) { c.Send(0, -1, nil) },
		"negative tag recv": func(c *Comm) { c.Recv(0, -5) },
		"bad dst":           func(c *Comm) { c.Send(9, 0, nil) },
		"bad recv src":      func(c *Comm) { c.Recv(-1, 0) },
	}
	for name, f := range cases {
		if err := w.RunE(f); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: RunE returned %v, want the rank's panic", name, err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a world of 0 ranks should panic")
			}
		}()
		NewWorldOpts(0, Options{})
	}()
}

// runRanks runs fn on every rank of w and fails the test on the first
// rank failure RunE reports.
func runRanks(t testing.TB, w *World, fn func(c *Comm)) {
	t.Helper()
	if err := w.RunE(fn); err != nil {
		t.Fatal(err)
	}
}

// wireDue reads c's wire clock: when every send it has issued is due.
func wireDue(c *Comm) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busyUntil
}

// waitSends sleeps until every send c has issued is due: what a blocking
// program does at the end of its overlapped sends.
func waitSends(c *Comm) { time.Sleep(time.Until(wireDue(c))) }

// TestGroupWaitDeadline: a group with nothing to claim waits in Group.Wait
// for its earliest modelled deadline — returning once it passes, with or
// without streams to watch, and counted active meanwhile, so a watchdog far
// shorter than the wait stays quiet — and a peer's failure wakes it at once.
func TestGroupWaitDeadline(t *testing.T) {
	const busy = 60 * time.Millisecond
	w := NewGroupedWorld(2, 1, Options{Watchdog: 5 * time.Millisecond})
	err := w.RunGroups(func(g *Group) error {
		for _, ss := range [][]Stream{nil, {{Rank: 1, Src: 0, Tag: 4}}} {
			start := time.Now()
			g.Wait(ss, start.Add(busy))
			if took := time.Since(start); took < busy {
				t.Errorf("Wait(%v) returned after %v, before its %v deadline", ss, took, busy)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("a group waiting on its deadline tripped the watchdog: %v", err)
	}

	w = NewGroupedWorld(2, 2, Options{})
	start := time.Now()
	err = w.RunGroups(func(g *Group) error {
		if g.Comms[0].Rank() == 1 {
			time.Sleep(20 * time.Millisecond) // rank 0 is waiting on its deadline
			panic("peer lost")
		}
		g.Wait(nil, time.Now().Add(10*time.Second))
		t.Error("Wait outlived the world's abort")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked: peer lost") {
		t.Fatalf("err = %v, want rank 1's diagnostic", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("RunGroups took %v to return after the panic", took)
	}
}
