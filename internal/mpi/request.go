package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request is the completion handle of a non-blocking send, the analogue
// of MPI_Request: it completes when the rank's NIC has delivered the
// message. Wait and Test are safe to call repeatedly.
//
// Ordering: Isends issued by one rank are transmitted by a single
// background NIC goroutine in issue order, so per-(source, tag) FIFO
// delivery holds among Isends, and among blocking Sends — but not between
// a blocking Send and a still-in-flight earlier Isend on the same stream.
// Programs that mix both on one stream must Wait on the Isend first.
type Request struct {
	c   *Comm
	dst int
	tag int

	done chan struct{} // closed on completion

	// dropped marks a request whose message was discarded before
	// delivery by Comm.DropPending (crash simulation). Set once, before
	// done is closed, so any Wait/Test that observes completion also
	// observes the final Dropped answer.
	dropped atomic.Bool

	// completion hooks (see OnComplete), guarded by mu
	mu    sync.Mutex
	fired bool
	cbs   []func()
}

// Dropped reports whether this request's message was discarded
// undelivered by Comm.DropPending. It is final once the request has
// completed (done closed): a completed request was either delivered or
// dropped, never both.
func (r *Request) Dropped() bool { return r.dropped.Load() }

// OnComplete registers fn to run exactly once when the request completes,
// right after the NIC delivers the message (fn runs on the NIC goroutine).
// A request that is already complete runs fn immediately. This is the
// buffer-recycling hook pooled executors use to reap in-flight Isends
// without blocking in Wait.
func (r *Request) OnComplete(fn func()) {
	r.mu.Lock()
	if r.fired {
		r.mu.Unlock()
		fn()
		return
	}
	r.cbs = append(r.cbs, fn)
	r.mu.Unlock()
}

// fireComplete runs and clears the registered completion callbacks;
// subsequent OnComplete calls run immediately.
func (r *Request) fireComplete() {
	r.mu.Lock()
	if r.fired {
		r.mu.Unlock()
		return
	}
	r.fired = true
	cbs := r.cbs
	r.cbs = nil
	r.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// nicItem is one queued outbound transfer.
type nicItem struct {
	dst, tag int
	data     []float64
	req      *Request
}

// nicQueue is a rank's outbound transfer queue, drained in order by one
// background goroutine (the "NIC"): Isend never blocks the caller, and
// any injected wire cost is paid off the compute path. busy is true while
// the NIC goroutine is transmitting a popped item — DropPending waits for
// it so delivered-vs-dropped status is final when DropPending returns.
type nicQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []nicItem
	busy   bool
	closed bool
	done   chan struct{}
}

// startNIC lazily creates the rank's NIC queue and goroutine.
func (c *Comm) startNIC() *nicQueue {
	c.nicMu.Lock()
	defer c.nicMu.Unlock()
	if c.nic == nil {
		q := &nicQueue{done: make(chan struct{})}
		q.cond = sync.NewCond(&q.mu)
		c.nic = q
		go c.nicLoop(q)
	}
	return c.nic
}

func (c *Comm) nicLoop(q *nicQueue) {
	defer close(q.done)
	for {
		q.mu.Lock()
		q.busy = false
		q.cond.Broadcast()
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.items) == 0 {
			q.mu.Unlock()
			return
		}
		it := q.items[0]
		q.items = q.items[1:]
		q.busy = true
		q.mu.Unlock()
		// Transfer cost (and any injected fault) runs here, concurrent with
		// the rank's compute; skip it when tearing down after a failure.
		c.world.injectSendFaults(c.rank, it.dst)
		if d := c.world.wireDelay(len(it.data)); d > 0 && !c.world.aborted.Load() {
			time.Sleep(d)
		}
		c.world.deliver(c.rank, it.dst, it.tag, it.data, true)
		c.world.nicBusy.Add(-1)
		close(it.req.done)
		it.req.fireComplete()
	}
}

// DropPending simulates a NIC failure at a crash point: it synchronously
// discards this rank's queued, not-yet-transmitting Isends and returns
// how many were dropped. The transfer in flight (if any) is allowed to
// finish first — the NIC delivers in issue order, so when DropPending
// returns, the rank's issued Isends split cleanly into a delivered prefix
// and a dropped suffix, each request answering Dropped() definitively.
// Replaying exactly the dropped suffix therefore preserves per-stream
// FIFO order. Dropped requests complete (done closed, OnComplete hooks
// fired) so pooled buffers are still recycled and Waitall never hangs.
func (c *Comm) DropPending() int {
	c.nicMu.Lock()
	q := c.nic
	c.nicMu.Unlock()
	if q == nil {
		return 0
	}
	q.mu.Lock()
	items := q.items
	q.items = nil
	for q.busy {
		q.cond.Wait()
	}
	q.mu.Unlock()
	for _, it := range items {
		it.req.dropped.Store(true)
		c.world.nicBusy.Add(-1)
		close(it.req.done)
		it.req.fireComplete()
	}
	return len(items)
}

// flushNIC drains outstanding Isends and stops the NIC goroutine; RunE
// calls it when the rank function returns, so all issued messages are
// counted in Stats even if the program never Waited on them.
func (c *Comm) flushNIC() {
	c.nicMu.Lock()
	q := c.nic
	c.nicMu.Unlock()
	if q == nil {
		return
	}
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
	<-q.done
}

// Isend starts a non-blocking send of a copy of data to dst and returns
// its Request. The caller may reuse data immediately.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	buf := make([]float64, len(data))
	copy(buf, data)
	return c.IsendOwned(dst, tag, buf)
}

// IsendOwned is Isend without the snapshot copy: ownership of data
// transfers to the rank's NIC and, on delivery, to the receiver (whose
// Recv returns the very same slice). The caller must not touch data after
// the call — not even after Wait. Use Request.OnComplete to learn when the
// transfer has left the sender. Ordering and Stats are identical to Isend.
func (c *Comm) IsendOwned(dst, tag int, data []float64) *Request {
	if tag < 0 {
		panic("mpi: negative tags are reserved")
	}
	c.checkRank(dst)
	req := &Request{c: c, dst: dst, tag: tag, done: make(chan struct{})}
	q := c.startNIC()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("mpi: Isend after rank shutdown")
	}
	// Count the undelivered transfer before it is visible to the NIC, so
	// a watchdog can never observe "all parked" while delivery is pending.
	c.world.nicBusy.Add(1)
	q.items = append(q.items, nicItem{dst: dst, tag: tag, data: data, req: req})
	q.mu.Unlock()
	q.cond.Signal()
	return req
}

// Wait blocks until the NIC has delivered (or dropped) the message. Under
// a world watchdog a Wait stuck longer than the timeout aborts with a
// diagnostic instead of hanging.
func (r *Request) Wait() {
	w := r.c.world
	to := w.opts.Watchdog
	if to <= 0 {
		<-r.done
		return
	}
	w.blocked.Add(1)
	defer w.blocked.Add(-1)
	last := w.progress.Load()
	strikes := 0
	for {
		select {
		case <-r.done:
			return
		case <-time.After(to):
		}
		// The timer and completion can race: re-check done before
		// consulting the stall detector so a finished send never trips
		// the watchdog.
		if r.Test() {
			return
		}
		var stall bool
		last, stall = w.stalled(last)
		if stall {
			strikes++
		} else {
			strikes = 0
		}
		if strikes >= 2 {
			panic(fmt.Sprintf("watchdog: rank %d blocked in Wait(Isend dst=%d, tag=%d) longer than %v with no global progress — deadlock suspected", r.c.rank, r.dst, r.tag, to))
		}
	}
}

// Test reports whether the request has completed, without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Waitall completes every request; nil entries are skipped.
func Waitall(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}
