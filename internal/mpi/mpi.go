// Package mpi is an in-process message-passing runtime with MPI-like
// semantics: a fixed-size world of ranks (goroutines), blocking typed
// point-to-point Send/Recv with (source, tag) matching and per-stream FIFO
// ordering, non-blocking Isends completed together (WaitSends) and a
// barrier. Every send takes one path (Comm.transmit): it is handed to the
// transport when issued, stamped with the time it is due, and a blocking
// Send differs from an Isend only in that its sender sleeps until then.
//
// A (source, tag) stream is a FIFO queue: a receiver blocks for the head and
// claims it (Recv) — there are no posted receives, no polling and no
// per-message numbering. A stream's position is not the runtime's to keep:
// the executor's compiled tables fix it at every chain slot. The
// barrier is built from the same streams (Comm.Barrier), so it shares their
// ordering, watchdog and abort behaviour on every transport.
//
// It substitutes for the paper's MPI-over-FastEthernet transport (Go has no
// mature MPI binding): the compiled tile programs only rely on ordered
// point-to-point delivery plus a barrier, which this package provides with
// the same semantics. Sends are "eager" (buffered) as in MPI's small-message
// path; timing behaviour is modelled by the simnet package, and can
// additionally be *injected* into this runtime through
// Options.LinkLatency/PerValue so overlap effects become measurable
// in-process (see Options).
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Message is a delivered payload with its envelope.
type Message struct {
	Source int
	Tag    int
	// Delivered is the message's due time: when its injected wire cost
	// has been paid and a receiver may claim it. Receivers can subtract
	// it from their claim time to measure how long a message sat queued
	// — the tracing layer's send→recv timestamp delta.
	Delivered time.Time
	Data      []float64
}

type streamKey struct {
	src, tag int
}

// stream is one (source, tag) FIFO: queue[head:] holds the delivered,
// unclaimed messages in delivery order.
type stream struct {
	queue []Message
	head  int
}

// push appends m, first reclaiming the consumed prefix when the stream has
// drained or its backing array is full and at least half consumed — so a
// steady stream neither regrows its array nor holds more than twice its
// unclaimed messages.
func (s *stream) push(m Message) {
	if n := len(s.queue); s.head == n || (n == cap(s.queue) && s.head >= n/2) {
		live := copy(s.queue, s.queue[s.head:])
		clear(s.queue[live:])
		s.queue, s.head = s.queue[:live], 0
	}
	s.queue = append(s.queue, m)
}

// mailbox is one rank's incoming message store: per-(source, tag) FIFO
// queues guarded by a single condition variable.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[streamKey]*stream
}

func newMailbox() *mailbox {
	mb := &mailbox{queues: map[streamKey]*stream{}}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// streamOf returns (creating if needed) the stream for k; callers hold mu.
func (mb *mailbox) streamOf(k streamKey) *stream {
	s := mb.queues[k]
	if s == nil {
		// One allocation covers the depth a sender running a few messages
		// ahead of its receiver reaches, in place of append's 1-2-4-8 chain.
		s = &stream{queue: make([]Message, 0, 8)}
		mb.queues[k] = s
	}
	return s
}

// reset empties the mailbox for a new run, keeping its streams' capacity.
func (mb *mailbox) reset() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, s := range mb.queues {
		clear(s.queue)
		s.queue, s.head = s.queue[:0], 0
	}
}

func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	mb.streamOf(streamKey{m.Source, m.Tag}).push(m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take claims the head of stream k for rank, waiting for it: when the world
// has a watchdog timeout it panics with a deadlock diagnostic instead of
// waiting forever; when a peer rank has failed it panics with a secondary
// abort so the world can drain.
//
// A head is claimable once it is due (Message.Delivered). Waiting for a head
// still on the wire is wire activity, not a parked rank: a timer wakes the
// receiver at the due time. A head, once there, stays until its receiver
// claims it, so a wait leaves the parked count at most once.
//
// The watchdog observes *global* progress, not a flat per-call timeout: a
// receiver blocked here while another rank is still running (long compute
// phase), a message is on the wire, or any message has been delivered
// since the deadline was armed is waiting, not deadlocked, and the
// deadline re-arms. It fires only after two consecutive timeout periods in
// which every live rank sat parked in a blocking wait with nothing
// delivered — which is a genuine communication deadlock.
func (mb *mailbox) take(k streamKey, w *World, rank int, op string) Message {
	watch := w.newStallWatch(&mb.mu, mb.cond)
	defer watch.stop()
	w.blocked.Add(1)
	var due *time.Timer // wakes the wait for a head still on the wire
	defer func() {
		if due == nil {
			w.blocked.Add(-1)
		} else {
			due.Stop()
		}
	}()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	s := mb.streamOf(k)
	for {
		if w.aborted.Load() {
			panic(abortPanic{fmt.Sprintf("rank %d abandoned %s(src=%d, tag=%d): a peer rank failed", rank, op, k.src, k.tag)})
		}
		if s.head < len(s.queue) {
			m := s.queue[s.head]
			wire := time.Until(m.Delivered)
			if wire <= 0 {
				s.queue[s.head] = Message{} // the payload is the receiver's now
				s.head++
				return m
			}
			if due == nil {
				w.blocked.Add(-1)
				due = wakeAfter(wire, &mb.mu, mb.cond)
			}
		}
		if watch.deadlocked() {
			panic(fmt.Sprintf("watchdog: rank %d blocked in %s(src=%d, tag=%d) longer than %v with no global progress — deadlock suspected (no matching send)", rank, op, k.src, k.tag, w.opts.Watchdog))
		}
		mb.cond.Wait()
	}
}

// wake broadcasts cond. Locking (and releasing) mu first guarantees that a
// waiter which checked its condition under mu is either inside cond.Wait
// (and receives the broadcast) or has not yet checked (and will see the new
// state).
func wake(mu *sync.Mutex, cond *sync.Cond) {
	mu.Lock()
	//lint:ignore SA2001 empty critical section orders the broadcast
	mu.Unlock()
	cond.Broadcast()
}

// wakeAfter wakes cond's waiters after d.
func wakeAfter(d time.Duration, mu *sync.Mutex, cond *sync.Cond) *time.Timer {
	return time.AfterFunc(d, func() { wake(mu, cond) })
}

// stallWatch is the watchdog deadline of one blocking wait for a stream's
// head. A nil watch — the world has no watchdog — never fires.
type stallWatch struct {
	w        *World
	timer    *time.Timer
	deadline time.Time
	last     uint64
	strikes  int
}

// newStallWatch arms a watch for a waiter about to block on cond (guarded
// by mu): when the deadline passes the waiter is woken to consult
// deadlocked.
func (w *World) newStallWatch(mu *sync.Mutex, cond *sync.Cond) *stallWatch {
	to := w.opts.Watchdog
	if to <= 0 {
		return nil
	}
	// Read the deadline before the timer starts, so the timer never fires
	// before it: such a wake-up would re-arm nothing and hang the wait.
	s := &stallWatch{w: w, deadline: time.Now().Add(to), last: w.progress.Load()}
	s.timer = wakeAfter(to, mu, cond)
	return s
}

// deadlocked is called by the waiter, holding the mutex, each time it wakes
// unsatisfied: it reports true once two consecutive deadline periods have
// passed with the world stalled (see World.stalled), and otherwise re-arms
// an expired deadline.
func (s *stallWatch) deadlocked() bool {
	if s == nil || time.Now().Before(s.deadline) {
		return false
	}
	var stall bool
	if s.last, stall = s.w.stalled(s.last); stall {
		s.strikes++
	} else {
		s.strikes = 0
	}
	if s.strikes >= 2 {
		return true
	}
	to := s.w.opts.Watchdog
	s.deadline = time.Now().Add(to)
	s.timer.Reset(to)
	return false
}

func (s *stallWatch) stop() {
	if s != nil {
		s.timer.Stop()
	}
}

// abortPanic marks a secondary failure (a rank torn down because a peer
// already panicked); World.RunE reports the primary diagnostic instead.
type abortPanic struct{ msg string }

func (a abortPanic) String() string { return a.msg }

// Options configures a World beyond its rank count.
type Options struct {
	// Watchdog aborts a Recv or Barrier with a diagnostic naming the
	// stuck rank, peer and tag, instead of hanging the process on a
	// mis-matched schedule. It is progress-based, not a flat per-call
	// timeout: a wait only trips it after ~2× this duration with no global
	// progress — no message delivered, none on the wire, no rank running
	// outside a blocking wait, and no NoteProgress call. A
	// receiver stalled behind a peer's long compute phase therefore waits
	// as long as it takes; only a genuine deadlock (every live rank
	// parked, nothing moving) fires. Zero disables it.
	Watchdog time.Duration
	// LinkLatency and PerValue inject synthetic wire cost: each message
	// costs LinkLatency plus PerValue per float64 carried, and a rank's
	// messages pay their costs one after another — a message is due once
	// the rank's earlier messages are and its own cost has passed. A
	// blocking Send sleeps until its message is due (the transfer occupies
	// the CPU, as with blocking MPI over TCP); an Isend returns at once and
	// the sender computes on — which is what makes computation–communication
	// overlap measurable in-process. Zero (the default) injects nothing.
	LinkLatency time.Duration
	PerValue    time.Duration
	// Faults, when non-nil, adds the plan's deterministic perturbations
	// (per-link delay/jitter, transient send failures with backoff) to
	// every message's wire cost; compute slowdown and crash points are
	// carried for the executor. Failed transmissions are retried below the
	// traffic counters so Stats stay deterministic.
	Faults *FaultPlan
}

// RankTraffic is one rank's traffic, both directions.
type RankTraffic struct {
	BlockingSends   int64 // messages sent with Send
	OverlappedSends int64 // messages sent with Isend
	Values          int64 // float64 values across both
	Recvs           int64 // messages claimed by Recv
	ValuesRecvd     int64 // float64 values across claimed messages
	SendRetries     int64 // injected transient send failures survived (Options.Faults)
}

// Stats aggregates per-world traffic counters.
type Stats struct {
	Messages        int64 // point-to-point messages sent (all kinds)
	Values          int64 // float64 values carried by those messages
	BlockingSends   int64 // messages sent on the blocking path
	OverlappedSends int64 // messages sent on the non-blocking (Isend) path
	Recvs           int64 // messages claimed by receivers
	ValuesRecvd     int64 // float64 values claimed by receivers
	SendRetries     int64 // injected transient send failures survived
	PerRank         []RankTraffic
}

// rankCounters is the mutable form of RankTraffic. Every field is
// written only by the runtime (transmit, noteRecv, start and the fault
// plan's cost), each message exactly once on its sending side — transports
// never touch them — so traffic can never double-count. The world's totals
// are their sums.
type rankCounters struct {
	blocking    atomic.Int64
	overlapped  atomic.Int64
	values      atomic.Int64
	recvs       atomic.Int64
	valuesRecvd atomic.Int64
	sendRetries atomic.Int64
}

// World is a communicator universe of Size ranks.
type World struct {
	size    int
	opts    Options
	boxes   []*mailbox
	aborted atomic.Bool

	// wire moves delivered messages into destination mailboxes; the
	// default chanFabric does it synchronously in-process (see
	// transport.go, tcp.go).
	wire Transport

	// local[r] reports whether rank r runs in this process. A world
	// constructed by NewWorldOpts/NewWorldTransport hosts every
	// rank (remote == false); NewRemoteWorld hosts a subset and relies
	// on the transport to reach the rest.
	local  []bool
	remote bool

	// failErr is the first transport-surfaced failure (connection loss,
	// lost peer): the run's primary error.
	failErr atomic.Pointer[error]

	perRank []rankCounters

	// Watchdog progress observation (see Options.Watchdog): progress is
	// bumped on every delivery and NoteProgress call;
	// active counts ranks inside their RunE function; blocked counts ranks
	// parked in a blocking wait. A rank sitting out an injected outage
	// (FaultSleep) is active and not parked, so degraded-but-healthy runs
	// never trip the watchdog.
	progress atomic.Uint64
	active   atomic.Int64
	blocked  atomic.Int64

	// linkSeqs[src*size+dst] numbers the messages transmitted on each
	// directed link, in issue order — the coordinate every FaultPlan
	// decision keys on.
	linkSeqs []atomic.Int64
}

// NoteProgress records externally observable forward progress (the
// executor calls it after every completed tile): any watchdog about to
// fire re-arms instead. Deliveries count automatically.
func (w *World) NoteProgress() { w.progress.Add(1) }

// stalled implements the watchdog's deadlock test. Given the progress
// counter observed when the deadline was armed, it reports whether the
// world is stalled: no progress since, every live rank parked in a
// blocking wait, and nothing on the wire. A rank waiting for a message
// that is not yet due is not parked (see mailbox.take). When progress has
// occurred it returns the fresh counter so the caller re-arms against it.
func (w *World) stalled(last uint64) (uint64, bool) {
	if p := w.progress.Load(); p != last {
		return p, false
	}
	// A rank not parked — computing, or sitting out an injected outage —
	// will carry on.
	if w.blocked.Load() < w.active.Load() {
		return last, false
	}
	// Frames still inside the transport (held until due, queued for a
	// coalesced write, on the socket, or stalled behind a peer
	// mid-reconnect) are wire activity — never a stall.
	if w.wire.Busy() {
		return last, false
	}
	return last, true
}

// NewWorldOpts creates a world with explicit options.
func NewWorldOpts(size int, opts Options) *World {
	return NewWorldTransport(size, opts, nil)
}

// NewWorldTransport creates a world whose messages move over the given
// transport; nil selects the default in-process channel fabric. All
// ranks run in this process.
func NewWorldTransport(size int, opts Options, tr Transport) *World {
	return newWorld(size, nil, opts, tr)
}

// NewRemoteWorld creates a world of the given global size in which only
// the listed ranks run in this process; the transport (required) carries
// traffic to and from the rest. RunE executes fn once per *local* rank,
// and Stats only count traffic initiated or claimed by local ranks —
// merging per-process Stats reconstructs the global picture because each
// rank's counters live where the rank does.
func NewRemoteWorld(size int, local []int, opts Options, tr Transport) *World {
	if tr == nil {
		panic("mpi: NewRemoteWorld requires a transport")
	}
	if len(local) == 0 {
		panic("mpi: NewRemoteWorld requires at least one local rank")
	}
	return newWorld(size, local, opts, tr)
}

// rankMask expands a process's hosted-rank list into a per-rank flag; a nil
// list hosts every rank.
func rankMask(size int, local []int) ([]bool, error) {
	mask := make([]bool, size)
	for r := range mask {
		mask[r] = local == nil
	}
	for _, r := range local {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("mpi: local rank %d outside world of size %d", r, size)
		}
		mask[r] = true
	}
	return mask, nil
}

func newWorld(size int, local []int, opts Options, tr Transport) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size %d must be positive", size))
	}
	if err := opts.Faults.Validate(); err != nil {
		panic(err.Error())
	}
	hosted, err := rankMask(size, local)
	if err != nil {
		panic(err.Error())
	}
	w := &World{size: size, local: hosted, remote: local != nil}
	w.boxes = make([]*mailbox, size)
	w.perRank = make([]rankCounters, size)
	w.linkSeqs = make([]atomic.Int64, size*size)
	w.start(opts)
	if tr == nil {
		tr = &chanFabric{}
	}
	w.wire = tr
	tr.Attach(w)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Remote reports whether this world hosts only a subset of its ranks,
// with the rest living in peer processes of a shared mesh.
func (w *World) Remote() bool { return w.remote }

// Close releases the transport's resources (sockets, goroutines). The
// channel fabric holds none; TCP-backed worlds must be closed when their
// owner is done with them, or their mesh goroutines leak.
func (w *World) Close() error { return w.wire.Close() }

// Fail records err as the world's primary failure and aborts every
// blocked rank. Transports call it when a link is irrecoverably lost
// (peer process gone past its reconnect window) so RunE reports the
// connection loss rather than a secondary watchdog panic; the
// checkpointed-restart machinery treats it like any other injected
// fault surfaced through the run error.
func (w *World) Fail(err error) {
	if err == nil {
		return
	}
	w.failErr.CompareAndSwap(nil, &err)
	w.abort()
}

func (w *World) failure() error {
	if p := w.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

// start puts the world's per-run state — options, abort and failure
// flags, mailboxes, traffic counters, watchdog observation, fault link
// sequences — into its initial condition under opts. It is the only
// initialiser: newWorld and Reset both run it, so a reused world is a
// fresh one by construction: a reused world's mailboxes are emptied in
// place, since nothing of a finished run reaches them any more (Reset).
func (w *World) start(opts Options) {
	w.opts = opts
	w.aborted.Store(false)
	w.failErr.Store(nil)
	for i, mb := range w.boxes {
		if mb == nil {
			w.boxes[i] = newMailbox()
		} else {
			mb.reset()
		}
	}
	clear(w.perRank)
	w.progress.Store(0)
	w.blocked.Store(0)
	clear(w.linkSeqs)
}

// Reset returns the world to its just-constructed state under new
// options, so one World can serve run after run. It runs the same start
// the constructor runs, which empties every rank's mailbox in place, so
// what reuse spares is the transport (a TCP world's listener and links)
// and the mailboxes' capacity, not any per-run state. A reused world is
// indistinguishable from a fresh one — the reset and exec reuse tests
// assert bit-identical Stats against a cold world.
//
// Reset must only be called between runs: RunE has returned (its rank
// goroutines are gone by then, even after an abort), and no new
// RunE has started. Calling it while ranks are active panics.
func (w *World) Reset(opts Options) {
	if w.active.Load() != 0 {
		panic("mpi: Reset while ranks are active")
	}
	if err := opts.Faults.Validate(); err != nil {
		panic(err.Error())
	}
	// The transport's reset is a barrier: once it returns, no frame of the
	// previous (possibly aborted) run can reach a mailbox — frames still on
	// the wire are dropped on arrival — so start may empty them in place.
	w.wire.Reset()
	w.start(opts)
}

// Stats returns the cumulative traffic counters.
func (w *World) Stats() Stats {
	st := Stats{PerRank: make([]RankTraffic, w.size)}
	for i := range w.perRank {
		rc := &w.perRank[i]
		rt := RankTraffic{
			BlockingSends:   rc.blocking.Load(),
			OverlappedSends: rc.overlapped.Load(),
			Values:          rc.values.Load(),
			Recvs:           rc.recvs.Load(),
			ValuesRecvd:     rc.valuesRecvd.Load(),
			SendRetries:     rc.sendRetries.Load(),
		}
		st.PerRank[i] = rt
		st.Messages += rt.BlockingSends + rt.OverlappedSends
		st.Values += rt.Values
		st.BlockingSends += rt.BlockingSends
		st.OverlappedSends += rt.OverlappedSends
		st.Recvs += rt.Recvs
		st.ValuesRecvd += rt.ValuesRecvd
		st.SendRetries += rt.SendRetries
	}
	return st
}

// transmit is the one send path, run on the sending goroutine for every
// kind of send. It stamps the message with its due time, counts it against
// the sending rank and hands it to the transport at once. A message's cost
// is LinkLatency plus PerValue per value plus the fault plan's link delay
// and retry backoffs, and a rank pays its messages' costs one after another:
// due = max(now, busyUntil) + cost, then busyUntil = due — simnet's nicFree
// rule. It returns how far in the future the due time lies. Counters are
// sender-side and transport-independent, so Stats compare bit-identically
// across channel and wire-backed worlds; the transport owns everything from
// here to the destination mailbox (see World.arrive).
func (c *Comm) transmit(dst, tag int, data []float64, overlapped bool) time.Duration {
	w := c.world
	cost := w.opts.LinkLatency + time.Duration(len(data))*w.opts.PerValue + w.sendFaultDelay(c.rank, dst)
	now := time.Now()
	c.mu.Lock()
	due := c.busyUntil
	if due.Before(now) {
		due = now
	}
	due = due.Add(cost)
	c.busyUntil = due
	if due.After(now) {
		c.dues = append(stillDue(c.dues, now), due)
	}
	c.mu.Unlock()
	rc := &w.perRank[c.rank]
	if overlapped {
		rc.overlapped.Add(1)
	} else {
		rc.blocking.Add(1)
	}
	rc.values.Add(int64(len(data)))
	w.wire.Deliver(c.rank, dst, tag, data, due)
	return due.Sub(now)
}

// stillDue drops the due times that have passed from the front of dues,
// which is in issue order and so ascending.
func stillDue(dues []time.Time, now time.Time) []time.Time {
	i := 0
	for i < len(dues) && !dues[i].After(now) {
		i++
	}
	return append(dues[:0], dues[i:]...)
}

// sleep pays d of wire time on the calling goroutine; a world tearing down
// after a failure skips it, so it drains promptly.
func (c *Comm) sleep(d time.Duration) {
	if d > 0 && !c.world.aborted.Load() {
		time.Sleep(d)
	}
}

// noteRecv counts one claimed message against the receiving rank.
func (w *World) noteRecv(rank int, values int) {
	rc := &w.perRank[rank]
	rc.recvs.Add(1)
	rc.valuesRecvd.Add(int64(values))
}

// abort tears the world down after a rank failure: every blocked mailbox
// waiter (receives and barriers alike) panics with a secondary diagnostic
// instead of deadlocking, so RunE can return the primary one.
func (w *World) abort() {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, mb := range w.boxes {
		wake(&mb.mu, mb.cond)
	}
}

// RunE executes fn once per rank, each on its own goroutine, and blocks
// until all ranks return. A panic in any rank aborts the world (peers
// blocked in receives or barriers are torn down promptly) and is returned
// as an error, preferring the original diagnostic over secondary
// teardown panics. A message is counted when it is issued, so Stats are
// complete when RunE returns.
func (w *World) RunE(fn func(c *Comm)) error {
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	for r := 0; r < w.size; r++ {
		if !w.local[r] {
			continue
		}
		wg.Add(1)
		go func(rank int) {
			c := &Comm{world: w, rank: rank}
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					w.abort()
				}
			}()
			w.active.Add(1)
			defer w.active.Add(-1)
			fn(c)
		}(r)
	}
	wg.Wait()
	var secondary error
	for r, p := range panics {
		if p == nil {
			continue
		}
		if _, isAbort := p.(abortPanic); isAbort {
			if secondary == nil {
				secondary = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
			}
			continue
		}
		if ferr := w.failure(); ferr != nil {
			return fmt.Errorf("mpi: transport failure: %w (rank %d: %v)", ferr, r, p)
		}
		return fmt.Errorf("mpi: rank %d panicked: %v", r, p)
	}
	if ferr := w.failure(); ferr != nil {
		return fmt.Errorf("mpi: transport failure: %w", ferr)
	}
	return secondary
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int

	// The rank's wire clock (transmit): busyUntil is the due time of its
	// latest send, and dues the due times of its sends not yet due, in
	// issue order. mu guards both, so a rank may send from several
	// goroutines.
	mu        sync.Mutex
	busyUntil time.Time
	dues      []time.Time
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// tagBarrier is the reserved (negative) tag of the barrier's streams.
const tagBarrier = -6000

// check validates a user message's envelope: negative tags are reserved
// for the runtime's own protocol (the barrier).
func (c *Comm) check(peer, tag int) {
	if tag < 0 {
		panic("mpi: negative tags are reserved")
	}
	if peer < 0 || peer >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d outside world of size %d", peer, c.world.size))
	}
}

// Send delivers a copy of data to dst with the given tag. It is eager:
// the message goes to the transport at once, and the call returns when it
// is due (any injected wire cost is paid on the caller). Tags must be
// non-negative (negative tags are reserved for the runtime's protocol).
func (c *Comm) Send(dst, tag int, data []float64) {
	c.check(dst, tag)
	buf := make([]float64, len(data))
	copy(buf, data)
	c.sleep(c.transmit(dst, tag, buf, false))
}

// SendOwned is Send without the snapshot copy: ownership of data
// transfers through the runtime to the receiver, whose Recv returns the
// very same slice. The caller must not touch data after the call. Pooled
// executors use this to make steady-state communication allocation-free:
// the receiver unpacks the buffer and recycles it into its own send pool.
// Envelope semantics, ordering and Stats are identical to Send.
func (c *Comm) SendOwned(dst, tag int, data []float64) {
	c.check(dst, tag)
	c.sleep(c.transmit(dst, tag, data, false))
}

// IsendOwned is SendOwned without the wait: the message is with the
// transport when the call returns, and the caller computes on while its
// wire cost passes. The caller must not touch data after the call — not
// even after WaitSends. Envelope semantics, ordering and Stats are those
// of Send, counted as overlapped.
func (c *Comm) IsendOwned(dst, tag int, data []float64) {
	c.check(dst, tag)
	c.transmit(dst, tag, data, true)
}

// PendingSends returns how many of this rank's sends are not yet due —
// the overlap depth at this instant. Without injected wire cost every
// send is due when issued, and it is always zero.
func (c *Comm) PendingSends() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dues = stillDue(c.dues, time.Now())
	return len(c.dues)
}

// WaitSends blocks until every send this rank has issued is due. It waits
// on the rank's own clock, never on a peer, so it cannot deadlock.
func (c *Comm) WaitSends() {
	c.mu.Lock()
	d := time.Until(c.busyUntil)
	c.mu.Unlock()
	c.sleep(d)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages on one (src, tag) stream arrive in send
// order.
func (c *Comm) Recv(src, tag int) []float64 {
	return c.RecvMsg(src, tag).Data
}

// RecvMsg is Recv returning the full message envelope, including the
// Delivered timestamp the tracing layer uses to split blocked time from
// mailbox queue time. Matching and ordering are identical to Recv.
func (c *Comm) RecvMsg(src, tag int) Message {
	c.check(src, tag)
	m := c.world.boxes[c.rank].take(streamKey{src, tag}, c.world, c.rank, "Recv")
	c.world.noteRecv(c.rank, len(m.Data))
	return m
}

// Barrier blocks until all ranks have entered it: every rank reports to
// rank 0, which releases everyone once all reports are in. Successive
// barriers need no generation numbers — the per-(src, tag) FIFO streams
// order them. The reports and releases are ordinary stream messages, due
// at once, that bypass the traffic counters and the wire clock, so a
// barrier adds nothing to Stats on any transport, and a barrier some rank
// never enters is a receive nobody sends to: the watchdog names the
// waiting rank.
func (c *Comm) Barrier() {
	w := c.world
	if c.rank == 0 {
		for r := 1; r < w.size; r++ {
			c.barrierRecv(r)
		}
		for r := 1; r < w.size; r++ {
			w.wire.Deliver(0, r, tagBarrier, nil, time.Time{})
		}
		return
	}
	w.wire.Deliver(c.rank, 0, tagBarrier, nil, time.Time{})
	c.barrierRecv(0)
}

func (c *Comm) barrierRecv(src int) {
	c.world.boxes[c.rank].take(streamKey{src, tagBarrier}, c.world, c.rank, "Barrier")
}

// FlushWire blocks until every message this rank has delivered is out of
// the transport's own buffers (Transport.Flush). Checkpointing flushes
// before a snapshot so "sent before the snapshot" is well defined on
// wire-backed worlds.
func (c *Comm) FlushWire() { c.world.wire.Flush(c.rank) }

// NoteProgress is World.NoteProgress from inside a rank: programs call it
// at natural units of forward progress (the executor calls it once per
// completed tile) so the deadlock watchdog never mistakes a long pipeline
// stage for a hang.
func (c *Comm) NoteProgress() { c.world.NoteProgress() }
