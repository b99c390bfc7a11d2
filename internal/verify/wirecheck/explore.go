package wirecheck

import (
	"fmt"

	"tilespace/internal/mpi"
)

// Check exhaustively explores cfg's protocol state space breadth-first
// and returns the certificate (or a shortest counterexample trace).
//
// The model is the adversary's view of the transport: at every state it
// may produce an application send on any stream, deliver the oldest
// written frame of any link (verdict and mailbox put in one step, as
// acceptData does both under inLink.mu — or, under the SplitDelivery
// mutation, as two events), deliver it *again* without consuming it (a
// duplicated delivery), kill a connection (losing every written frame
// to the network), complete a reconnect handshake (welcome → resend
// plan → pending-queue flush — the exact SendCore/RecvCore
// negotiation), checkpoint a rank at a flushed point, crash-relaunch a
// rank (fresh cores seeded via the SeedSent/SeedAccepted path
// mpi.NewTCPMesh uses; written frames survive in the kernel, queued
// frames and the retained archive die), or reset the epoch with frames
// still in flight. Fault budgets bound the adversary; every
// interleaving within budget is visited exactly once (states are
// memoized under a canonical encoding).
func Check(cfg Config) Result {
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = 4_000_000
	}
	e := &explorer{cfg: &cfg, seen: map[string]int{}}
	root := cfg.initial()
	e.add(root, -1, "")
	var res Result
	for head := 0; head < len(e.states); head++ {
		st := e.states[head]
		if st.failed {
			res.DetectedFailures++
			continue // fail-stop terminal: the run aborted loudly
		}
		if v := e.quiescent(st); v != nil {
			res.Violation = e.trace(head, "", v)
			break
		}
		if stop, v := e.expand(head, st); stop {
			res.Violation = v
			break
		}
		if len(e.states) > maxStates {
			res.Truncated = true
			break
		}
	}
	res.States = len(e.states)
	res.Transitions = e.transitions
	return res
}

type violation struct {
	invariant string
	detail    string
}

type explorer struct {
	cfg         *Config
	seen        map[string]int
	states      []*state
	parents     []int
	events      []string
	transitions int
}

func (e *explorer) add(st *state, parent int, event string) {
	key := st.key(e.cfg)
	if _, ok := e.seen[key]; ok {
		return
	}
	e.seen[key] = len(e.states)
	e.states = append(e.states, st)
	e.parents = append(e.parents, parent)
	e.events = append(e.events, event)
}

// trace reconstructs the shortest event path to state id, appending the
// violating event (if the violation occurred on a transition out of id).
func (e *explorer) trace(id int, lastEvent string, v *violation) *Trace {
	var steps []Step
	for at := id; at > 0; at = e.parents[at] {
		steps = append(steps, Step{Event: e.events[at]})
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	if lastEvent != "" {
		steps = append(steps, Step{Event: lastEvent})
	}
	return &Trace{Invariant: v.invariant, Detail: v.detail, Steps: steps}
}

// expand generates every enabled event of st. It returns a shortest
// counterexample the moment a transition violates an invariant.
func (e *explorer) expand(id int, st *state) (bool, *Trace) {
	cfg := e.cfg
	for li := range st.links {
		l := &st.links[li]
		ln := cfg.Links[li]
		// send: the application on the source rank produces the next
		// message of one stream. On a live connection the frame is
		// written immediately (through the suppression filter); on a
		// dead one it joins the pending queue a blocked writer holds.
		for ti, tag := range ln.Tags {
			if l.cursor[ti] >= l.total {
				continue
			}
			ev := fmt.Sprintf("rank %d sends msg %d on link %d→%d tag %d", ln.Src, l.cursor[ti], ln.Src, ln.Dst, tag)
			ns := st.clone()
			nl := &ns.links[li]
			seq := nl.send.Stamp(tag)
			nl.cursor[ti]++
			if nl.up {
				// Payload is the stamp epoch — the model's stand-in for
				// the transport's encoded frame bytes, which carry the
				// epoch they were stamped under and resend verbatim.
				nl.send.Retain(tag, seq, ns.epoch)
				if nl.send.ShouldTransmit(tag, seq) {
					nl.wire = append(nl.wire, flight{tagIdx: ti, seq: seq, epoch: ns.epoch})
				}
			} else {
				nl.pend = append(nl.pend, flight{tagIdx: ti, seq: seq, epoch: ns.epoch})
			}
			e.transitions++
			e.add(ns, id, ev)
		}
		// deliver / duplicated delivery of the oldest written frame.
		// Written bytes are the kernel's to deliver — a dead sender
		// process does not stop them, which is why this event does not
		// require the connection to be up.
		if len(l.wire) > 0 {
			ev := fmt.Sprintf("link %d→%d delivers frame (tag %d, seq %d)", ln.Src, ln.Dst, ln.Tags[l.wire[0].tagIdx], l.wire[0].seq)
			ns := st.clone()
			nl := &ns.links[li]
			fl := nl.wire[0]
			nl.wire = nl.wire[1:]
			if stop, tr := e.judge(id, ns, li, fl, ev); stop {
				return true, tr
			}
			if l.dups < cfg.MaxDups {
				ev := fmt.Sprintf("link %d→%d re-delivers frame (tag %d, seq %d) without consuming it", ln.Src, ln.Dst, ln.Tags[l.wire[0].tagIdx], l.wire[0].seq)
				ns := st.clone()
				nl := &ns.links[li]
				nl.dups++
				if stop, tr := e.judge(id, ns, li, nl.wire[0], ev); stop {
					return true, tr
				}
			}
		}
		// put: under SplitDelivery, the oldest accepted frame reaches the
		// mailbox, where the application consumes it.
		if len(l.accepted) > 0 {
			fl := l.accepted[0]
			ev := fmt.Sprintf("link %d→%d puts accepted frame (tag %d, seq %d) into rank %d's mailbox", ln.Src, ln.Dst, ln.Tags[fl.tagIdx], fl.seq, ln.Dst)
			ns := st.clone()
			nl := &ns.links[li]
			nl.accepted = nl.accepted[1:]
			if v := e.oracle(ns, li, fl); v != nil {
				return true, e.trace(id, ev, v)
			}
			e.transitions++
			e.add(ns, id, ev)
		}
		// drop: network loss. Every written frame dies; the live
		// sender's retained archive is what recovers them.
		if l.up && l.drops < cfg.MaxDrops {
			ev := fmt.Sprintf("connection %d→%d drops (%d written frames lost)", ln.Src, ln.Dst, len(l.wire))
			ns := st.clone()
			nl := &ns.links[li]
			nl.up = false
			nl.wire = nil
			nl.drops++
			e.transitions++
			e.add(ns, id, ev)
		}
		// reconnect: hello → welcome handshake, the resend plan, then
		// the pending queue flushes through the suppression filter (the
		// blocked writer resumes).
		if !l.up {
			ev := fmt.Sprintf("link %d→%d reconnects (welcome %v, resends plan, flushes queue)", ln.Src, ln.Dst, l.recv.WelcomeCounts())
			ns := st.clone()
			nl := &ns.links[li]
			nl.up = true
			nl.send.ObserveWelcome(nl.recv.WelcomeCounts())
			for _, rt := range nl.send.ResendPlan() {
				// Resent frames are the original bytes: they keep the
				// epoch they were stamped under (the payload), so a
				// pre-reset frame resent post-reset is stale on arrival.
				ti := tagIndex(ln.Tags, rt.Tag)
				nl.wire = append(nl.wire, flight{tagIdx: ti, seq: rt.Seq, epoch: rt.Payload.(uint32)})
			}
			for _, fl := range nl.pend {
				tag := ln.Tags[fl.tagIdx]
				nl.send.Retain(tag, fl.seq, fl.epoch)
				if nl.send.ShouldTransmit(tag, fl.seq) {
					nl.wire = append(nl.wire, fl)
				}
			}
			nl.pend = nil
			e.transitions++
			e.add(ns, id, ev)
		}
	}
	for _, r := range cfg.CrashRanks {
		rs := &st.ranks[r]
		// checkpoint: only at flushed states — saveProcSnapshot flushes
		// the wire before snapshotting, so a checkpoint never records a
		// produced-but-unwritten frame as sent.
		if cfg.Checkpoint && !rs.ckpt && !rs.crashed && e.flushed(st, r) {
			ev := fmt.Sprintf("rank %d checkpoints (wire flushed)", r)
			ns := st.clone()
			nr := &ns.ranks[r]
			nr.ckpt = true
			nr.ckptConsumed = map[int][]uint64{}
			nr.ckptCursor = map[int][]uint64{}
			for li, ln := range cfg.Links {
				if ln.Dst == r {
					nr.ckptConsumed[li] = append([]uint64(nil), ns.links[li].consumed...)
				}
				if ln.Src == r {
					nr.ckptCursor[li] = append([]uint64(nil), ns.links[li].cursor...)
				}
			}
			e.transitions++
			e.add(ns, id, ev)
		}
		if !rs.crashed {
			ev := fmt.Sprintf("rank %d crashes and relaunches from %s", r, ckptName(rs.ckpt))
			ns := st.clone()
			e.crash(ns, r)
			e.transitions++
			e.add(ns, id, ev)
		}
	}
	if cfg.Reset && !st.reset {
		ev := fmt.Sprintf("epoch reset (%d → %d) with frames in flight", st.epoch, st.epoch+1)
		ns := st.clone()
		ns.reset = true
		ns.epoch++
		for li := range ns.links {
			nl := &ns.links[li]
			nl.send.ResetEpoch()
			nl.recv.ResetEpoch()
			for ti := range nl.cursor {
				nl.cursor[ti] = 0
				nl.consumed[ti] = 0
			}
			nl.total = uint64(cfg.ResetMsgs)
			// The wire is deliberately NOT cleared: frames stamped by the
			// dead epoch stay in flight and the receiver's epoch filter is
			// all that keeps them out of the new run's mailboxes. Nor are
			// frames between verdict and put (SplitDelivery only): the
			// shipped Reset's lock barrier is what rules those out.
		}
		e.transitions++
		e.add(ns, id, ev)
	}
	return false, nil
}

// flushed reports whether every frame rank r has produced is written
// (FlushWire's postcondition: all outbound links up, pending queues
// empty).
func (e *explorer) flushed(st *state, r int) bool {
	for li, ln := range e.cfg.Links {
		if ln.Src != r {
			continue
		}
		l := &st.links[li]
		if !l.up || len(l.pend) > 0 {
			return false
		}
	}
	return true
}

func ckptName(taken bool) string {
	if taken {
		return "its checkpoint"
	}
	return "scratch (no checkpoint)"
}

// judge runs one frame through the receiver core, checks the verdict
// against the oracle, and either records the successor state, a
// fail-stop terminal (AllowDetectedLoss gap), or a violation.
func (e *explorer) judge(id int, ns *state, li int, fl flight, ev string) (bool, *Trace) {
	v, failStop := e.consume(ns, li, fl)
	if v != nil {
		return true, e.trace(id, ev, v)
	}
	if failStop {
		ns.failed = true
		ev += " — stream gap detected, run fails loudly"
	}
	e.transitions++
	e.add(ns, id, ev)
	return false, nil
}

// consume runs one frame through the receiver core and judges the
// verdict against the model's oracle cursor. Under SplitDelivery an
// accepted frame waits for its put event instead.
func (e *explorer) consume(ns *state, li int, fl flight) (*violation, bool) {
	nl := &ns.links[li]
	ln := e.cfg.Links[li]
	tag := ln.Tags[fl.tagIdx]
	verdict := nl.recv.Accept(fl.epoch, ns.epoch, tag, fl.seq)
	switch verdict {
	case mpi.VerdictStale, mpi.VerdictDuplicate:
		return nil, false
	case mpi.VerdictGap:
		if e.cfg.AllowDetectedLoss {
			return nil, true // fail-stop: loud, by design
		}
		return &violation{
			invariant: "no-loss",
			detail: fmt.Sprintf("link %d→%d tag %d: stream gap — frame %d arrived but %d was never delivered",
				ln.Src, ln.Dst, tag, fl.seq, nl.recv.Accepted(tag)),
		}, false
	}
	if e.cfg.SplitDelivery {
		nl.accepted = append(nl.accepted, fl)
		return nil, false
	}
	// VerdictAccept: the application consumes the frame here.
	return e.oracle(ns, li, fl), false
}

// oracle judges the application's consumption of an accepted frame
// against the model's consumer cursor.
func (e *explorer) oracle(ns *state, li int, fl flight) *violation {
	nl := &ns.links[li]
	ln := e.cfg.Links[li]
	tag := ln.Tags[fl.tagIdx]
	if fl.epoch != ns.epoch {
		return &violation{
			invariant: "reset-safety",
			detail: fmt.Sprintf("link %d→%d tag %d: frame (seq %d) stamped by dead epoch %d consumed in epoch %d",
				ln.Src, ln.Dst, tag, fl.seq, fl.epoch, ns.epoch),
		}
	}
	want := nl.consumed[fl.tagIdx]
	switch {
	case fl.seq < want:
		return &violation{
			invariant: "no-dup",
			detail: fmt.Sprintf("link %d→%d tag %d: frame %d consumed twice (consumer already at %d)",
				ln.Src, ln.Dst, tag, fl.seq, want),
		}
	case fl.seq > want:
		return &violation{
			invariant: "fifo",
			detail: fmt.Sprintf("link %d→%d tag %d: frame %d consumed before frame %d",
				ln.Src, ln.Dst, tag, fl.seq, want),
		}
	}
	nl.consumed[fl.tagIdx] = want + 1
	return nil
}

// crash relaunches rank r from its checkpoint (or scratch): every
// adjacent link endpoint gets a fresh protocol core seeded exactly the
// way mpi.NewTCPMesh seeds a relaunched tilerankd process from
// TCPConfig.Recv/Sent, and the application re-executes from the checkpoint —
// regenerating its sends with their original sequence numbers.
//
// Fault semantics: frames rank r already wrote stay deliverable (the
// kernel owns them), its pending queues and retained archives die with
// the process, and frames in flight *to* r die (the receiving process's
// buffers are gone); the live peers' retained archives recover those on
// reconnect.
func (e *explorer) crash(ns *state, r int) {
	nr := &ns.ranks[r]
	nr.crashed = true
	for li, ln := range e.cfg.Links {
		nl := &ns.links[li]
		if ln.Dst == r {
			nl.recv = mpi.NewRecvCore(e.cfg.Rules)
			for ti, tag := range ln.Tags {
				var c uint64
				if nr.ckpt {
					c = nr.ckptConsumed[li][ti]
				}
				if c > 0 {
					nl.recv.SeedAccepted(tag, c)
				}
				nl.consumed[ti] = c
			}
			nl.up = false
			nl.wire = nil
			nl.accepted = nil
		}
		if ln.Src == r {
			nl.send = mpi.NewSendCore(e.cfg.Rules)
			for ti, tag := range ln.Tags {
				var c uint64
				if nr.ckpt {
					c = nr.ckptCursor[li][ti]
				}
				if c > 0 {
					nl.send.SeedSent(tag, c)
				}
				nl.cursor[ti] = c
			}
			nl.up = false
			nl.pend = nil
			// nl.wire survives: written bytes belong to the kernel.
		}
	}
}

// quiescent checks the completeness half of no-loss: at a state where
// no progress event is enabled — every connection up, every wire and
// queue drained, every stream fully produced — every stream must also
// be fully consumed. Fault events don't count: the adversary may always
// stop faulting, so recovery must never *require* another fault. Under
// AllowDetectedLoss the completeness claim is waived (a double fault
// may strand a stream; liveness is then the watchdog's job) and only
// the safety invariants stand.
func (e *explorer) quiescent(st *state) *violation {
	if e.cfg.AllowDetectedLoss {
		return nil
	}
	for li := range st.links {
		l := &st.links[li]
		if !l.up || len(l.wire) > 0 || len(l.accepted) > 0 {
			return nil // reconnect, deliver or put still enabled
		}
		for ti := range l.cursor {
			if l.cursor[ti] < l.total {
				return nil // send still enabled
			}
		}
	}
	for li := range st.links {
		l := &st.links[li]
		ln := e.cfg.Links[li]
		for ti, tag := range ln.Tags {
			if l.consumed[ti] != l.total {
				return &violation{
					invariant: "no-loss",
					detail: fmt.Sprintf("quiescent with undelivered frames: link %d→%d tag %d consumed %d of %d",
						ln.Src, ln.Dst, tag, l.consumed[ti], l.total),
				}
			}
		}
	}
	return nil
}

func tagIndex(tags []int, tag int) int {
	for i, t := range tags {
		if t == tag {
			return i
		}
	}
	return 0
}
