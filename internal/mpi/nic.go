package mpi

import (
	"fmt"
	"sync"
)

// A rank's non-blocking sends are transmitted by one background goroutine
// (its "NIC") strictly in issue order, so "how many of this rank's Isends
// have completed" is a single number: the completed sends are always a
// prefix of the issued ones. That count is the runtime's whole model of
// send completion — there is no per-message handle. WaitSends blocks until
// the count catches up with what was issued, PendingSends reads the gap,
// and DropPending (crash simulation) completes the undelivered suffix
// without transmitting it.
//
// Ordering: per-(source, tag) FIFO delivery holds among Isends, and among
// blocking Sends — but not between a blocking Send and a still-in-flight
// earlier Isend on the same stream. Programs that mix both on one stream
// must WaitSends first.

// nicItem is one queued outbound transfer.
type nicItem struct {
	dst, tag int
	data     []float64
}

// nicQueue is a rank's outbound transfer queue, drained in order by the
// NIC goroutine (started by the rank's first Isend): Isend never blocks the
// caller, and any injected wire cost is paid off the compute path.
// items[head:] are the undelivered transfers in issue order; while busy,
// items[head] is on the wire — DropPending leaves it alone and waits for
// it, so delivered-vs-dropped is final when DropPending returns.
type nicQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []nicItem
	head  int
	busy  bool
	// issued and completed count this rank's Isends; completed (delivered
	// or dropped) never exceeds issued, and the difference is len(items)-head.
	issued, completed int
	closed            bool
	done              chan struct{} // non-nil once the NIC goroutine runs; closed when it exits
}

func (c *Comm) nicLoop() {
	q := &c.nic
	defer close(q.done)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.head == len(q.items) && !q.closed {
			q.cond.Wait()
		}
		if q.head == len(q.items) {
			return
		}
		it := q.items[q.head]
		q.busy = true
		q.mu.Unlock()
		// Transfer cost (and any injected fault) is paid here, concurrent
		// with the rank's compute.
		c.world.transmit(c.rank, it.dst, it.tag, it.data, true)
		c.world.nicBusy.Add(-1)
		q.mu.Lock()
		q.busy = false
		q.items[q.head] = nicItem{} // the payload is the receiver's now
		q.head++
		q.completed++
		q.cond.Broadcast()
	}
}

// DropPending simulates a NIC failure at a crash point: it synchronously
// discards this rank's queued, not-yet-transmitting Isends and returns
// how many were dropped. The transfer in flight (if any) is allowed to
// finish first — the NIC delivers in issue order, so when DropPending
// returns, the rank's issued Isends split cleanly into a delivered prefix
// and a dropped suffix of the returned length, and nothing is pending.
// Re-issuing exactly that suffix therefore preserves per-stream FIFO order.
func (c *Comm) DropPending() int {
	q := &c.nic
	q.mu.Lock()
	defer q.mu.Unlock()
	keep := q.head
	if q.busy {
		keep++
	}
	dropped := len(q.items) - keep
	clear(q.items[keep:])
	q.items = q.items[:keep]
	q.completed += dropped
	c.world.nicBusy.Add(int64(-dropped))
	for q.busy {
		q.cond.Wait()
	}
	return dropped
}

// flushNIC drains outstanding Isends and stops the NIC goroutine; RunE
// calls it when the rank function returns, so all issued messages are
// counted in Stats even if the program never waited for them.
func (c *Comm) flushNIC() {
	q := &c.nic
	q.mu.Lock()
	q.closed = true
	done := q.done
	q.mu.Unlock()
	if done != nil {
		q.cond.Broadcast()
		<-done
	}
}

// IsendOwned starts a non-blocking send: ownership of data transfers to
// the rank's NIC and, on delivery, to the receiver (whose Recv returns the
// very same slice). The caller must not touch data after the call — not
// even after WaitSends. Envelope semantics and Stats are those of Send,
// counted as overlapped.
func (c *Comm) IsendOwned(dst, tag int, data []float64) {
	c.check(dst, tag)
	q := &c.nic
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("mpi: Isend after rank shutdown")
	}
	if q.done == nil {
		q.done = make(chan struct{})
		go c.nicLoop()
	}
	// Count the undelivered transfer before it is visible to the NIC, so
	// a watchdog can never observe "all parked" while delivery is pending.
	c.world.nicBusy.Add(1)
	if q.head == len(q.items) {
		// Drained: restart at the front, so steady-state sends neither
		// regrow the backing array nor slide it.
		q.items, q.head = q.items[:0], 0
	}
	q.items = append(q.items, nicItem{dst: dst, tag: tag, data: data})
	q.issued++
	q.mu.Unlock()
	q.cond.Broadcast()
}

// PendingSends returns how many of this rank's Isends are issued but not
// yet delivered — the overlap depth at this instant.
func (c *Comm) PendingSends() int {
	q := &c.nic
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.issued - q.completed
}

// WaitSends blocks until every Isend this rank has issued is delivered (or
// dropped). Under a world watchdog a wait stuck with no global progress
// aborts with a diagnostic naming the oldest undelivered send instead of
// hanging.
func (c *Comm) WaitSends() {
	q, w := &c.nic, c.world
	watch := w.newStallWatch(&q.mu, q.cond)
	defer watch.stop()
	w.blocked.Add(1)
	defer w.blocked.Add(-1)
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.completed < q.issued {
		if watch.deadlocked() {
			it := q.items[q.head]
			panic(fmt.Sprintf("watchdog: rank %d blocked in WaitSends (%d undelivered, oldest Isend dst=%d, tag=%d) longer than %v with no global progress — deadlock suspected", c.rank, q.issued-q.completed, it.dst, it.tag, w.opts.Watchdog))
		}
		q.cond.Wait()
	}
}
