package mpi

import (
	"sync/atomic"
	"testing"
)

func TestPingPong(t *testing.T) {
	w := NewWorld(2)
	var got atomic.Value
	w.Run(func(c *Comm) {
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
	w := NewWorld(2)
	w.Run(func(c *Comm) {
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
	w := NewWorld(2)
	const n = 200
	w.Run(func(c *Comm) {
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
	w := NewWorld(2)
	w.Run(func(c *Comm) {
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

func TestTryRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			if _, ok := c.TryRecv(1, 0); ok {
				t.Error("TryRecv should find nothing before barrier")
			}
			c.Barrier()
			c.Barrier()
			if got, ok := c.TryRecv(1, 0); !ok || got[0] != 5 {
				t.Errorf("TryRecv after send = %v, %v", got, ok)
			}
		} else {
			c.Barrier()
			c.Send(0, 0, []float64{5})
			c.Barrier()
		}
	})
}

func TestRing(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	sums := make([]float64, p)
	w.Run(func(c *Comm) {
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
	w := NewWorld(p)
	var phase1 atomic.Int32
	fail := atomic.Bool{}
	w.Run(func(c *Comm) {
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
}

func TestManyToOneStress(t *testing.T) {
	const p = 8
	const msgs = 100
	w := NewWorld(p)
	var total atomic.Int64
	w.Run(func(c *Comm) {
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
	defer func() {
		if recover() == nil {
			t.Fatal("Run should re-raise rank panic")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier() // must be poisoned, not deadlock
	})
}

func TestInvalidUsePanics(t *testing.T) {
	w := NewWorld(1)
	cases := map[string]func(c *Comm){
		"negative tag send": func(c *Comm) { c.Send(0, -1, nil) },
		"negative tag recv": func(c *Comm) { c.Recv(0, -5) },
		"bad dst":           func(c *Comm) { c.Send(9, 0, nil) },
		"bad try src":       func(c *Comm) { c.TryRecv(-1, 0) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic (re-raised by Run)", name)
				}
			}()
			w.Run(f)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewWorld(0) should panic")
			}
		}()
		NewWorld(0)
	}()
}
