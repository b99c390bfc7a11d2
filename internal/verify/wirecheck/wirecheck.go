// Package wirecheck is the resume protocol's model checker: it drives
// the *same* pure SendCore/RecvCore transition cores the TCP transport
// runs (internal/mpi/protocol.go) through an exhaustive breadth-first
// exploration of every interleaving of a small configuration's events —
// sends, in-order deliveries, duplicated deliveries, connection drops,
// reconnect handshakes, rank crash-relaunches from a checkpoint
// (TCPConfig.Recv/Sent), and epoch resets — and proves four invariants on
// every reachable state:
//
//	no-loss      every stream is fully consumed once the faults stop
//	             (checked at quiescent states), and no link ever fails
//	             with a stream gap
//	no-dup       no frame is consumed twice (an accepted frame whose
//	             sequence is below the consumer cursor is a protocol
//	             failure, not a benign drop)
//	fifo         frames of one (src, dst, tag) stream are consumed in
//	             exactly send order (the consumer cursor only ever
//	             advances to the sequence it expected)
//	reset-safety after an epoch reset, no frame stamped by the dead
//	             epoch is ever consumed
//
// The fault model mirrors the transport's actual guarantees:
//
//   - A connection *drop* is network loss: every in-flight frame dies,
//     and the live sender's retained archive recovers them on the next
//     reconnect handshake.
//   - A rank *crash* is process death: in-flight frames the process
//     already wrote are still delivered by the kernel, the process's
//     queued-but-unwritten frames and its retained archive die with
//     it, and the relaunch reseeds fresh protocol cores through the
//     exact SeedSent/SeedAccepted path mpi.NewTCPMesh uses, then
//     re-executes from the checkpoint — regenerating sends with their
//     original sequence numbers.
//   - A *checkpoint* is only enabled at flushed states (every produced
//     frame written), because saveProcSnapshot flushes the wire before
//     snapshotting stream counts.
//
// Combining network loss with a sender crash before its reconnect
// exceeds the single-fault recovery guarantee by design: the only copy
// of a dropped frame was the retained archive that died with the
// process. The shipped protocol detects this as a stream gap and fails
// the run loudly. Configs with AllowDetectedLoss certify exactly that
// weaker-but-honest property for double faults: loss may occur but is
// always *detected* (fail-stop), never silent corruption.
//
// Because states are explored breadth-first and memoized, a violated
// invariant is reported with a *shortest* event trace reaching it — the
// certifier's concrete-counterexample idiom, applied to protocol state
// space instead of iteration space. Check(cfg) with the zero
// mpi.ProtocolRules certifies the shipped protocol; flipping any
// mutation knob (NoDedup, ResendOffByOne, OverSuppress, NoEpochFilter)
// must — and does — produce a counterexample, which is how the suite
// proves every decision point in the protocol core is load-bearing.
package wirecheck

import (
	"fmt"
	"sort"
	"strings"

	"tilespace/internal/mpi"
)

// Link declares one directed link of the model: Src sends Msgs frames
// on each tag in Tags to Dst.
type Link struct {
	Src, Dst int
	Tags     []int
	Msgs     int
}

// Config is one model-checking run: a rank topology, per-link traffic,
// and bounded fault budgets. Budgets bound the *adversary*, not the
// protocol — every interleaving that spends at most the budget is
// explored.
type Config struct {
	// Ranks is the world size (ranks are 0..Ranks-1).
	Ranks int
	// Links are the directed links carrying traffic.
	Links []Link
	// MaxDrops bounds connection drops per link. A drop is network
	// loss: every in-flight frame of the link dies and a reconnect
	// handshake is needed for further delivery.
	MaxDrops int
	// MaxDups bounds duplicated deliveries per link (the oldest
	// in-flight frame is processed without being consumed from the
	// wire — a resend race).
	MaxDups int
	// CrashRanks lists ranks that may crash and relaunch (at most once
	// each, at any point). See the package comment for the crash fault
	// model.
	CrashRanks []int
	// Checkpoint enables a checkpoint event for each crash rank (at
	// most one, at any flushed point before its crash). Without it,
	// crashes restart from scratch and re-execute the whole run.
	Checkpoint bool
	// Reset enables one epoch-reset event (World.Reset): all stream
	// state restarts, every stream's traffic total becomes ResetMsgs,
	// and old-epoch frames still in flight must never be consumed.
	Reset bool
	// ResetMsgs is the per-stream message count after a reset.
	ResetMsgs int
	// AllowDetectedLoss switches the certificate from the single-fault
	// recovery guarantee to the double-fault fail-stop guarantee: a
	// stream gap becomes a terminal (failed, loud) state instead of a
	// violation, and quiescent completeness is not required — but
	// no-dup, fifo and reset-safety still hold on every path.
	AllowDetectedLoss bool
	// Rules selects the protocol variant; the zero value is the
	// shipped protocol.
	Rules mpi.ProtocolRules
	// MaxStates aborts exploration beyond this many states (a
	// configuration-too-big guard, not a soundness bound). 0 means 4M.
	MaxStates int
}

// Step is one event of a counterexample trace.
type Step struct {
	// Event is the human-readable event description.
	Event string
}

// Trace is a shortest event sequence from the initial state to an
// invariant violation.
type Trace struct {
	// Invariant names what broke: "no-dup", "fifo", "no-loss",
	// "reset-safety".
	Invariant string
	// Detail pins the violation to a concrete stream and sequence.
	Detail string
	// Steps is the event sequence, in order.
	Steps []Step
}

func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violated %s: %s\n", t.Invariant, t.Detail)
	for i, s := range t.Steps {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, s.Event)
	}
	return b.String()
}

// Result is one Check run's outcome.
type Result struct {
	// States is the number of distinct protocol states explored.
	States int
	// Transitions is the number of state transitions taken.
	Transitions int
	// DetectedFailures counts fail-stop (gap-detected) terminal states
	// reached under AllowDetectedLoss.
	DetectedFailures int
	// Violation is nil when every reachable state satisfies every
	// invariant; otherwise a shortest counterexample.
	Violation *Trace
	// Truncated reports that exploration hit MaxStates before
	// exhausting the space (the certificate is then only partial).
	Truncated bool
}

// Ok reports a complete, violation-free certificate.
func (r Result) Ok() bool { return r.Violation == nil && !r.Truncated }

// ---------------------------------------------------------------------
// Model state.

// flight is one frame: which tag stream, which sequence, and the epoch
// it was stamped under.
type flight struct {
	tagIdx int
	seq    uint64
	epoch  uint32
}

// linkState is the model's view of one directed link: the two protocol
// cores (the exact code under test), the connection, the wire, and the
// model-only oracle state used to judge the cores.
type linkState struct {
	send *mpi.SendCore
	recv *mpi.RecvCore
	up   bool // connection established (handshake done)
	// wire holds frames written to the connection, oldest first. They
	// survive a sender crash (the kernel delivers written bytes) but
	// not a drop (network loss) or a receiver crash.
	wire []flight
	// pend holds frames produced while the connection was down:
	// stamped but unwritten, exactly the transport's queued frames a
	// blocked writer holds. They flush through the suppression filter
	// on reconnect and die with a sender crash.
	pend []flight

	// cursor is how many frames the sender's re-execution has produced
	// per tag — rewound to the checkpoint on a crash, so the model
	// regenerates sends exactly like a deterministically re-executed
	// rank would.
	cursor []uint64
	// consumed is the oracle: how many frames of each tag stream the
	// destination application has consumed. The protocol cores never
	// see it; the invariants are judged against it.
	consumed []uint64
	// total is the frames each tag stream must eventually deliver.
	total uint64

	drops, dups int // fault budget spent
}

// rankState is per-rank crash bookkeeping.
type rankState struct {
	crashed bool // crash budget spent
	ckpt    bool // checkpoint taken
	// ckptConsumed/ckptCursor snapshot, per adjacent link and tag, the
	// consumed and produced counts at checkpoint time.
	ckptConsumed map[int][]uint64 // link index → per-tag consumed
	ckptCursor   map[int][]uint64 // link index → per-tag cursor
}

// state is one node of the explored graph.
type state struct {
	links  []linkState
	ranks  []rankState
	epoch  uint32
	reset  bool // reset budget spent
	failed bool // fail-stop terminal (gap detected, AllowDetectedLoss)
}

func (c *Config) initial() *state {
	st := &state{
		links: make([]linkState, len(c.Links)),
		ranks: make([]rankState, c.Ranks),
	}
	for i, ln := range c.Links {
		st.links[i] = linkState{
			send:     mpi.NewSendCore(c.Rules),
			recv:     mpi.NewRecvCore(c.Rules),
			cursor:   make([]uint64, len(ln.Tags)),
			consumed: make([]uint64, len(ln.Tags)),
			total:    uint64(ln.Msgs),
		}
	}
	return st
}

func (s *state) clone() *state {
	c := &state{
		links:  make([]linkState, len(s.links)),
		ranks:  make([]rankState, len(s.ranks)),
		epoch:  s.epoch,
		reset:  s.reset,
		failed: s.failed,
	}
	for i := range s.links {
		l := &s.links[i]
		c.links[i] = linkState{
			send:     l.send.Clone(),
			recv:     l.recv.Clone(),
			up:       l.up,
			wire:     append([]flight(nil), l.wire...),
			pend:     append([]flight(nil), l.pend...),
			cursor:   append([]uint64(nil), l.cursor...),
			consumed: append([]uint64(nil), l.consumed...),
			total:    l.total,
			drops:    l.drops,
			dups:     l.dups,
		}
	}
	for i := range s.ranks {
		r := &s.ranks[i]
		nr := rankState{crashed: r.crashed, ckpt: r.ckpt}
		if r.ckptConsumed != nil {
			nr.ckptConsumed = map[int][]uint64{}
			for k, v := range r.ckptConsumed {
				nr.ckptConsumed[k] = append([]uint64(nil), v...)
			}
		}
		if r.ckptCursor != nil {
			nr.ckptCursor = map[int][]uint64{}
			for k, v := range r.ckptCursor {
				nr.ckptCursor[k] = append([]uint64(nil), v...)
			}
		}
		c.ranks[i] = nr
	}
	return c
}

// key canonically encodes the state for memoization. Everything that
// distinguishes future behavior must appear; trace history must not.
func (s *state) key(cfg *Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "e%d r%t f%t|", s.epoch, s.reset, s.failed)
	for i := range s.links {
		l := &s.links[i]
		fmt.Fprintf(&b, "L%d u%t d%d p%d t%d[", i, l.up, l.drops, l.dups, l.total)
		for ti, tag := range cfg.Links[i].Tags {
			next := l.send.NextSeq(tag)
			peer, ok := l.send.PeerCount(tag)
			if !ok {
				fmt.Fprintf(&b, "%d:%d,-,%d,%d,%d;", tag, next, l.recv.Accepted(tag), l.cursor[ti], l.consumed[ti])
			} else {
				fmt.Fprintf(&b, "%d:%d,%d,%d,%d,%d;", tag, next, peer, l.recv.Accepted(tag), l.cursor[ti], l.consumed[ti])
			}
		}
		b.WriteString("]{")
		for _, fl := range l.wire {
			fmt.Fprintf(&b, "%d.%d.%d ", fl.tagIdx, fl.seq, fl.epoch)
		}
		b.WriteString("}<")
		for _, fl := range l.pend {
			fmt.Fprintf(&b, "%d.%d.%d ", fl.tagIdx, fl.seq, fl.epoch)
		}
		// Retained archive shape (including stamp epochs) matters for
		// resend behavior.
		b.WriteString(">(")
		for _, rt := range l.send.RetainedFrames() {
			fmt.Fprintf(&b, "%d.%d.%v ", rt.Tag, rt.Seq, rt.Payload)
		}
		b.WriteString(")|")
	}
	for i := range s.ranks {
		r := &s.ranks[i]
		fmt.Fprintf(&b, "R%d c%t k%t", i, r.crashed, r.ckpt)
		if r.ckptConsumed != nil {
			keys := make([]int, 0, len(r.ckptConsumed))
			for k := range r.ckptConsumed {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " i%d%v", k, r.ckptConsumed[k])
			}
		}
		if r.ckptCursor != nil {
			keys := make([]int, 0, len(r.ckptCursor))
			for k := range r.ckptCursor {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " o%d%v", k, r.ckptCursor[k])
			}
		}
		b.WriteString("|")
	}
	return b.String()
}
