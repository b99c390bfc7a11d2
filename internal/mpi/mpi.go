// Package mpi is an in-process message-passing runtime with MPI-like
// semantics: a fixed-size world of ranks, run by goroutines one block of
// ranks each (RunGroups; RunE for one rank each), blocking typed
// point-to-point Send/Recv with (source, tag) matching and per-stream FIFO
// ordering, an owned send that never waits (SendOwned) and a barrier. Every
// send takes one path (Comm.transmit): it is handed to the transport when
// issued, stamped with the time it is due. A blocking Send sleeps until
// then; SendOwned returns the due time, and its caller — the executor's
// group driver — keeps the rank busy until then or not, as it models. A
// rank's wire clock is the due time of its latest send, and it is all the
// runtime keeps of its sends: a caller that waits for them, or counts those
// not yet due, keeps the due times SendOwned returned.
//
// A (source, tag) stream is a FIFO queue whose head a receiver claims —
// waiting for it (Recv) or only if it is there (TryRecvMsg); there are no
// posted receives and no per-message numbering: the executor's compiled
// tables fix a stream's position at every chain slot. A group with nothing
// to claim waits in Group.Wait, for a head or for its ranks' earliest
// modelled deadline. The barrier is built from the same streams, so it
// shares their ordering, watchdog and abort.
//
// It substitutes for the paper's MPI-over-FastEthernet transport: the
// compiled tile programs rely only on ordered point-to-point delivery plus
// a barrier. Sends are eager (buffered), as on MPI's small-message path;
// timing is modelled by simnet and can be injected here through
// Options.LinkLatency/PerValue so overlap becomes measurable in-process.
package mpi

import (
	"fmt"
	"slices"
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

// Stream names one receive stream: the messages to rank Rank from rank Src
// with tag Tag, in send order.
type Stream struct{ Rank, Src, Tag int }

// Queue is a stream's FIFO store — a mailbox's per stream, and the
// executor's between two ranks of one group: queue[head:] holds the items
// not yet taken, oldest first.
type Queue[T any] struct {
	queue []T
	head  int
}

// Push appends v, first reclaiming the taken prefix when the queue has
// drained or its backing array is full and at least half taken — so a
// steady stream neither regrows its array nor holds more than twice its
// live items.
func (q *Queue[T]) Push(v T) {
	if n := len(q.queue); q.head == n || (n == cap(q.queue) && q.head >= n/2) {
		live := copy(q.queue, q.queue[q.head:])
		clear(q.queue[live:])
		q.queue, q.head = q.queue[:live], 0
	}
	q.queue = append(q.queue, v)
}

// Len returns how many items are not yet taken.
func (q *Queue[T]) Len() int { return len(q.queue) - q.head }

// Pop takes the oldest item, which must exist.
func (q *Queue[T]) Pop() T {
	v := q.queue[q.head]
	clear(q.queue[q.head : q.head+1]) // the item is the taker's now
	q.head++
	return v
}

// mailbox is the incoming message store of one rank, or of a group of ranks
// (NewGroupedWorld): per-stream FIFO queues guarded by a single condition
// variable.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[Stream]*Queue[Message]
}

func newMailbox() *mailbox {
	mb := &mailbox{queues: map[Stream]*Queue[Message]{}}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
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

func (mb *mailbox) put(dst int, m Message) {
	mb.mu.Lock()
	k := Stream{dst, m.Source, m.Tag}
	s := mb.queues[k]
	if s == nil {
		// One allocation covers the depth a sender running a few messages
		// ahead of its receiver reaches, in place of append's 1-2-4-8 chain.
		s = &Queue[Message]{queue: make([]Message, 0, 8)}
		mb.queues[k] = s
	}
	s.Push(m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// head returns stream k's queue when it has a head, and how long until that
// head is due (≤ 0: claimable). Callers hold mu.
func (mb *mailbox) head(k Stream) (*Queue[Message], time.Duration) {
	s := mb.queues[k]
	if s == nil || s.Len() == 0 {
		return nil, 0
	}
	return s, time.Until(s.queue[s.head].Delivered)
}

// take waits until the head of one of the streams ss is claimable and
// returns its index, claiming it when claim is set, or until the deadline
// until (zero: none) passes and returns −1; the waiter's parked ranks (its
// own, or its whole group's) count as parked meanwhile. With a watchdog it
// panics with a deadlock diagnostic naming ss[0] once the world stalls
// (Options.Watchdog); when a peer has failed it panics with a secondary
// abort so the world can drain. A head is claimable once due: waiting for
// one still on the wire, or for a deadline, is activity, not a parked rank
// — a timer wakes the waiter at the due time — and a head, once there,
// stays until claimed, so a wait leaves the parked count at most once.
func (mb *mailbox) take(ss []Stream, until time.Time, claim bool, w *World, parked int64, op string) (int, Message) {
	watch := w.newStallWatch(&mb.mu, mb.cond)
	defer watch.stop()
	w.blocked.Add(parked)
	var due *time.Timer // wakes the wait for a head still on the wire
	defer func() {
		if due == nil {
			w.blocked.Add(-parked)
		} else {
			due.Stop()
		}
	}()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	k := ss[0]
	for {
		if w.aborted.Load() {
			panic(abortPanic{fmt.Sprintf("rank %d abandoned %s(src=%d, tag=%d): a peer rank failed", k.Rank, op, k.Src, k.Tag)})
		}
		soonest := time.Duration(0)
		if !until.IsZero() {
			if soonest = time.Until(until); soonest <= 0 {
				return -1, Message{}
			}
		}
		for i, want := range ss {
			s, wire := mb.head(want)
			if s != nil && wire <= 0 {
				if !claim {
					return i, Message{}
				}
				return i, s.Pop()
			}
			if wire > 0 && (soonest == 0 || wire < soonest) {
				soonest = wire
			}
		}
		if soonest > 0 {
			if due == nil {
				w.blocked.Add(-parked)
				due = wakeAfter(soonest, &mb.mu, mb.cond)
			} else {
				due.Reset(soonest)
			}
		}
		if watch.deadlocked() {
			panic(fmt.Sprintf("watchdog: rank %d blocked in %s(src=%d, tag=%d) longer than %v with no global progress — deadlock suspected (no matching send)", k.Rank, op, k.Src, k.Tag, w.opts.Watchdog))
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
// already panicked); World.RunGroups reports the primary diagnostic instead.
type abortPanic struct{ msg string }

func (a abortPanic) String() string { return a.msg }

// Options configures a World beyond its rank count.
type Options struct {
	// Watchdog aborts a Recv, Barrier or Group.Wait with a diagnostic
	// naming the stuck rank, peer and tag instead of hanging. It is
	// progress-based: a wait trips it only after ~2× this duration with no
	// message delivered, none on the wire, no rank running outside a
	// blocking wait and no NoteProgress call — a genuine deadlock, never a
	// peer's long compute phase. Zero disables it.
	Watchdog time.Duration
	// LinkLatency and PerValue inject synthetic wire cost: a message costs
	// LinkLatency plus PerValue per float64, paid after the rank's earlier
	// messages. A blocking sender is busy until its message is due (as
	// blocking MPI over TCP occupies the CPU); an overlapped one computes on,
	// which makes overlap measurable in-process. Zero injects nothing.
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
	BlockingSends   int64 // messages sent blocking (Send, SendOwned)
	OverlappedSends int64 // messages sent overlapped (SendOwned)
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
	OverlappedSends int64 // messages sent on the overlapped path
	Recvs           int64 // messages claimed by receivers
	ValuesRecvd     int64 // float64 values claimed by receivers
	SendRetries     int64 // injected transient send failures survived
	PerRank         []RankTraffic
}

// rankCounters is the mutable form of RankTraffic, written only by the
// runtime (countSend, noteRecv, start, the fault plan's cost), each message
// once — never by a transport. The world's totals are their sums.
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

	wire Transport // moves delivered messages into mailboxes (transport.go)

	// local[r] reports whether rank r runs in this process: every rank but
	// on a NewRemoteWorld (remote), whose transport reaches the rest.
	local  []bool
	remote bool

	// failErr is the first transport-surfaced failure (connection loss,
	// lost peer): the run's primary error.
	failErr atomic.Pointer[error]

	perRank []rankCounters

	// Watchdog progress observation (see Options.Watchdog): progress is
	// bumped on every delivery and NoteProgress call; active counts ranks
	// of running groups; blocked counts ranks parked in a blocking wait (a
	// group's all at once). A group waiting on a modelled deadline
	// (Group.Wait) is active and not parked.
	progress atomic.Uint64
	active   atomic.Int64
	blocked  atomic.Int64

	// linkSeqs[src*size+dst] numbers the messages transmitted on each
	// directed link, in issue order — the coordinate every FaultPlan
	// decision keys on; nil without a plan.
	linkSeqs []atomic.Int64
}

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

// NewGroupedWorld creates an in-process channel world whose ranks fall into
// groups contiguous blocks (clamped to 1..size): block b holds ranks
// [b·size/groups, (b+1)·size/groups) and one mailbox, and RunGroups steps
// it on one goroutine. RunE needs groups == size.
func NewGroupedWorld(size, groups int, opts Options) *World {
	return newWorld(size, min(max(groups, 1), size), nil, opts, nil)
}

// NewWorldTransport creates a world whose messages move over the given
// transport; nil selects the default in-process channel fabric. All
// ranks run in this process.
func NewWorldTransport(size int, opts Options, tr Transport) *World {
	return newWorld(size, size, nil, opts, tr)
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
	return newWorld(size, size, local, opts, tr)
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

func newWorld(size, groups int, local []int, opts Options, tr Transport) *World {
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
	for b := 0; b < groups; b++ {
		mb := newMailbox()
		for r := b * size / groups; r < (b+1)*size/groups; r++ {
			w.boxes[r] = mb
		}
	}
	w.perRank = make([]rankCounters, size)
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
// blocked rank. Transports call it when a link is irrecoverably lost (a
// peer process gone past its reconnect window), so RunGroups reports the
// connection loss rather than a secondary watchdog panic.
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
	for _, mb := range w.boxes {
		mb.reset()
	}
	clear(w.perRank)
	w.progress.Store(0)
	w.blocked.Store(0)
	w.linkSeqs = nil
	if opts.Faults != nil { // only a fault plan numbers a link's messages
		w.linkSeqs = make([]atomic.Int64, w.size*w.size)
	}
}

// Reset returns the world to its just-constructed state under new options
// by the constructor's own start, so a reused world is a fresh one with the
// transport (a TCP world's listener and links) and the mailboxes' capacity
// spared. It must only be called between runs (RunGroups has returned, even
// after an abort); while ranks are active it panics.
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
	per := make([]RankTraffic, w.size)
	for i := range w.perRank {
		rc := &w.perRank[i]
		per[i] = RankTraffic{
			BlockingSends:   rc.blocking.Load(),
			OverlappedSends: rc.overlapped.Load(),
			Values:          rc.values.Load(),
			Recvs:           rc.recvs.Load(),
			ValuesRecvd:     rc.valuesRecvd.Load(),
			SendRetries:     rc.sendRetries.Load(),
		}
	}
	return StatsOf(per)
}

// StatsOf returns the Stats of the given per-rank traffic: the world's
// totals are their sums, wherever the ranks ran.
func StatsOf(perRank []RankTraffic) Stats {
	st := Stats{PerRank: perRank}
	for _, rt := range perRank {
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

// transmit is the one send path through the transport: it stamps the
// message with its due time, counts it against the sender (so Stats are
// transport-independent) and hands it over, returning the due time. A
// message costs LinkLatency plus PerValue per value plus the fault plan's
// delay and backoffs, and a rank pays its costs one after another:
// due = max(now, busyUntil) + cost — simnet's nicFree rule.
func (c *Comm) transmit(dst, tag int, data []float64, overlapped bool) time.Time {
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
	c.mu.Unlock()
	w.countSend(c.rank, len(data), overlapped)
	w.wire.Deliver(c.rank, dst, tag, data, due)
	return due
}

// countSend counts one issued message against the sending rank.
func (w *World) countSend(src, values int, overlapped bool) {
	rc := &w.perRank[src]
	if overlapped {
		rc.overlapped.Add(1)
	} else {
		rc.blocking.Add(1)
	}
	rc.values.Add(int64(values))
}

// noteRecv counts one claimed message against the receiving rank.
func (w *World) noteRecv(rank int, values int) {
	rc := &w.perRank[rank]
	rc.recvs.Add(1)
	rc.valuesRecvd.Add(int64(values))
}

// abort tears the world down after a rank failure: every blocked mailbox
// waiter (receives and barriers alike) panics with a secondary diagnostic
// instead of deadlocking, so RunGroups can return the primary one.
func (w *World) abort() {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, mb := range w.boxes {
		wake(&mb.mu, mb.cond)
	}
}

// Group is the block of ranks one goroutine of RunGroups steps: the ranks
// of one mailbox (NewGroupedWorld), or a single rank of any other world.
type Group struct {
	Comms []*Comm
}

// Wait blocks until the head of one of the streams ss — each a receive of
// one of the group's ranks — is claimable, or until the deadline until
// (zero: none) passes: the earliest time one of its ranks is busy until.
// Claiming is the caller's. Without a deadline the whole group counts as
// parked meanwhile, so the watchdog and abort hold as for a rank blocked in
// Recv, naming ss[0]; with one it counts as active, as a computing rank.
func (g *Group) Wait(ss []Stream, until time.Time) {
	c := g.Comms[0]
	if len(ss) == 0 { // a wait for a deadline alone names no stream of its own
		ss = []Stream{{Rank: c.rank, Src: -1, Tag: -1}}
	}
	c.world.boxes[c.rank].take(ss, until, false, c.world, int64(len(g.Comms)), "Recv")
}

// RunGroups executes fn once per group of local ranks (maximal runs of
// consecutive ranks sharing a mailbox), each group on its own goroutine, and
// blocks until all return. A panic, or an error fn returns, aborts the world
// (peers blocked in receives or barriers are torn down promptly) and is
// returned, preferring the original diagnostic over secondary teardown
// panics. A message is counted when it is issued, so Stats are complete
// when RunGroups returns.
func (w *World) RunGroups(fn func(g *Group) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	panics := make([]any, w.size)
	for first := 0; first < w.size; first++ {
		if !w.local[first] {
			continue
		}
		end := first + 1
		for end < w.size && w.boxes[end] == w.boxes[first] {
			end++
		}
		wg.Add(1)
		go func(first, end int) {
			g := &Group{Comms: make([]*Comm, end-first)}
			for i := range g.Comms {
				g.Comms[i] = &Comm{world: w, rank: first + i}
			}
			n := int64(len(g.Comms))
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[first] = p
					w.abort()
				}
			}()
			w.active.Add(n)
			defer w.active.Add(-n)
			if errs[first] = fn(g); errs[first] != nil {
				w.abort()
			}
		}(first, end)
		first = end - 1
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
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

// RunE is RunGroups with fn run once per local rank, on a world whose
// groups are single ranks (any but a NewGroupedWorld one).
func (w *World) RunE(fn func(c *Comm)) error {
	return w.RunGroups(func(g *Group) error {
		if len(g.Comms) > 1 {
			panic("mpi: RunE on a grouped world")
		}
		fn(g.Comms[0])
		return nil
	})
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int

	// The rank's wire clock (transmit): busyUntil is the due time of its
	// latest send. mu guards it, so a rank may send from several
	// goroutines.
	mu        sync.Mutex
	busyUntil time.Time
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

// Send delivers a copy of data to dst with the given (non-negative) tag.
// It is eager: the message goes to the transport at once, and the call
// returns when it is due (injected wire cost is paid on the caller; a
// world tearing down after a failure skips the wait, so it drains promptly).
func (c *Comm) Send(dst, tag int, data []float64) {
	c.check(dst, tag)
	if d := time.Until(c.transmit(dst, tag, slices.Clone(data), false)); d > 0 && !c.world.aborted.Load() {
		time.Sleep(d)
	}
}

// SendOwned is Send without the copy and without the wait: data passes to
// the receiver, whose Recv returns the very same slice, so communication
// allocates nothing (the caller must not write data while the receiver may
// still read it), and the message's due time is returned. Counted as
// overlapped or blocking, as the caller says: a blocking sender is the
// caller's to keep busy until the due time; an overlapped one computes on.
func (c *Comm) SendOwned(dst, tag int, data []float64, overlapped bool) time.Time {
	c.check(dst, tag)
	return c.transmit(dst, tag, data, overlapped)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages on one (src, tag) stream arrive in send
// order.
func (c *Comm) Recv(src, tag int) []float64 {
	c.check(src, tag)
	_, m := c.world.boxes[c.rank].take([]Stream{{c.rank, src, tag}}, time.Time{}, true, c.world, 1, "Recv")
	c.world.noteRecv(c.rank, len(m.Data))
	return m.Data
}

// TryRecvMsg is Recv without the wait, returning the full envelope: it
// claims the stream's head if it is there and due, and reports whether it
// did. Message.Delivered lets the tracing layer measure how long it sat
// queued.
func (c *Comm) TryRecvMsg(src, tag int) (Message, bool) {
	c.check(src, tag)
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	s, wire := mb.head(Stream{c.rank, src, tag})
	if s == nil || wire > 0 {
		mb.mu.Unlock()
		return Message{}, false
	}
	m := s.Pop()
	mb.mu.Unlock()
	c.world.noteRecv(c.rank, len(m.Data))
	return m, true
}

// SendLocal counts a message of values floats from this rank to dst, a rank
// of its group whose driver hands the payload over itself, as the send
// (overlapped or blocking) and as dst's claim: Stats read as if it had gone
// through the world. It delivers nothing and pays no wire cost.
func (c *Comm) SendLocal(dst, values int, overlapped bool) {
	w := c.world
	if w.boxes[dst] != w.boxes[c.rank] {
		panic(fmt.Sprintf("mpi: SendLocal from rank %d to rank %d of another group", c.rank, dst))
	}
	w.countSend(c.rank, values, overlapped)
	w.noteRecv(dst, values)
}

// Barrier blocks until all ranks have entered it: every rank reports to
// rank 0, which releases everyone. The reports and releases are stream
// messages on a reserved tag, due at once and uncounted, so FIFO order
// separates successive barriers, Stats never see one, and a barrier some
// rank never enters is a receive the watchdog names. On a grouped world
// two ranks of one group cannot both enter it.
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
	c.world.boxes[c.rank].take([]Stream{{c.rank, src, tagBarrier}}, time.Time{}, true, c.world, 1, "Barrier")
}

// FlushWire blocks until every message this rank has delivered is out of
// the transport's own buffers (Transport.Flush). Checkpointing flushes
// before a snapshot so "sent before the snapshot" is well defined on
// wire-backed worlds.
func (c *Comm) FlushWire() { c.world.wire.Flush(c.rank) }

// NoteProgress records forward progress: programs call it at natural units
// of it (the executor calls it once per completed tile) so the deadlock
// watchdog never mistakes a long pipeline stage for a hang — any watchdog
// about to fire re-arms instead. Deliveries count by themselves.
func (c *Comm) NoteProgress() { c.world.progress.Add(1) }
