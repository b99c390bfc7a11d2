package mpi

// This file is the resume protocol's decision core: sequence numbers,
// retained-frame resends, suppression, dedup and gap detection, epoch
// filtering and heartbeat liveness, as pure state transitions with no
// sockets, goroutines or locks. tcp.go drives these cores under its links'
// mutexes; verify/wirecheck drives the very same cores through every
// interleaving of sends, deliveries, drops, duplicates, relaunches and
// resets on small configurations, so no-loss, no-duplication, per-stream
// FIFO and reset safety are proved about the code the wire runs.
// ProtocolRules' mutation knobs (zero: the shipped protocol) let wirecheck
// show that every decision point is load-bearing.

// ProtocolRules parameterizes the resume protocol's decision points.
// The zero value is the correct, shipped protocol. Each knob re-creates
// a plausible implementation bug; verify/wirecheck proves each one
// violates the protocol's guarantees on a concrete interleaving.
type ProtocolRules struct {
	// NoDedup removes receiver-side duplicate detection: a frame whose
	// sequence number was already accepted is delivered again.
	NoDedup bool
	// ResendOffByOne turns the reconnect resend rule from seq >= accepted
	// into seq > accepted, silently dropping the first missing frame of
	// every stream.
	ResendOffByOne bool
	// OverSuppress turns sender-side suppression from seq < accepted into
	// seq <= accepted, suppressing one frame the peer never received.
	OverSuppress bool
	// NoEpochFilter removes the receiver's stale-epoch filter: frames
	// from a previous run's epoch are accepted into the current run.
	NoEpochFilter bool
}

// Retained is one data frame in a sender's retain-until-acknowledged
// archive. Payload is opaque to the core: the transport stores a pointer
// to its wireFrame, the model checker the frame's stamp epoch.
type Retained struct {
	Tag     int
	Seq     uint64
	Payload any
}

// SendCore is the sender half of one directed link's resume protocol:
// per-tag sequence stamping, the retained archive, the receiver's
// acknowledged counts from the last handshake, and the resend /
// suppression decisions derived from them. It is pure state — the
// transport serializes access with the link mutex, the model checker
// copies it freely.
type SendCore struct {
	rules    ProtocolRules
	next     map[int]uint64 // next fresh sequence per tag
	peer     map[int]uint64 // receiver's accepted counts at last welcome (nil before any)
	retained []Retained     // transmitted data frames, in stamp order
}

// NewSendCore returns a fresh sender core (every stream at sequence 0,
// no handshake observed, nothing retained).
func NewSendCore(rules ProtocolRules) *SendCore {
	return &SendCore{rules: rules, next: map[int]uint64{}}
}

// Stamp assigns the next sequence number on the tag's stream. Frames on
// one (src, dst, tag) stream are numbered consecutively from 0 in send
// order — the coordinate the whole resume protocol settles on.
func (s *SendCore) Stamp(tag int) uint64 {
	seq := s.next[tag]
	s.next[tag] = seq + 1
	return seq
}

// Retain archives a stamped frame until a handshake acknowledges it;
// reconnects resend from this archive. Call in stamp order per stream.
func (s *SendCore) Retain(tag int, seq uint64, payload any) {
	s.retained = append(s.retained, Retained{Tag: tag, Seq: seq, Payload: payload})
}

// ShouldTransmit decides sender-side suppression: a frame the receiver
// has already acknowledged (seq below the last welcome's accepted count)
// is regenerated traffic — checkpointed re-execution re-stamping old
// sends — and is skipped at the writer instead of burning wire bytes
// only to be deduplicated at the far end. Before any handshake every
// frame transmits.
func (s *SendCore) ShouldTransmit(tag int, seq uint64) bool {
	if s.peer == nil {
		return true
	}
	if s.rules.OverSuppress {
		return seq > s.peer[tag]
	}
	return seq >= s.peer[tag]
}

// ObserveWelcome records the receiver's per-stream accepted counts from
// a hello → welcome handshake; subsequent ShouldTransmit and ResendPlan
// decisions are made against them.
func (s *SendCore) ObserveWelcome(counts map[int]uint64) {
	s.peer = make(map[int]uint64, len(counts))
	for tag, n := range counts {
		s.peer[tag] = n
	}
}

// ResendPlan selects the retained frames the last welcome says the peer
// has not accepted, in stamp order: exactly the frames a reconnect must
// redeliver for no-loss to hold.
func (s *SendCore) ResendPlan() []Retained {
	var out []Retained
	for _, fr := range s.retained {
		lim := s.peer[fr.Tag]
		keep := fr.Seq >= lim
		if s.rules.ResendOffByOne {
			keep = fr.Seq > lim
		}
		if keep {
			out = append(out, fr)
		}
	}
	return out
}

// RetainedFrames returns the archive (shared backing; callers must not
// mutate). The transport uses it to settle custody accounting after a
// resend pass.
func (s *SendCore) RetainedFrames() []Retained { return s.retained }

// SeedSent seeds one outbound stream's sequence counter from a
// relaunched rank's checkpoint position (TCPConfig.Sent): sends
// regenerated by deterministic re-execution are stamped as their
// originals were, so receiver dedup and sender suppression remove every
// duplicate.
func (s *SendCore) SeedSent(tag int, count uint64) { s.next[tag] = count }

// NextSeq reports the next sequence the tag's stream would stamp.
func (s *SendCore) NextSeq(tag int) uint64 { return s.next[tag] }

// PeerCount reports the accepted count the last welcome advertised for
// tag; ok is false before any handshake.
func (s *SendCore) PeerCount(tag int) (uint64, bool) {
	if s.peer == nil {
		return 0, false
	}
	return s.peer[tag], true
}

// ResetEpoch returns the core to its just-constructed state: stream
// sequences restart at zero, the archive is dropped (an epoch reset
// means the previous run's frames no longer need delivery) and the
// handshake state is forgotten. Table and archive keep their capacity.
func (s *SendCore) ResetEpoch() {
	clear(s.next)
	s.peer = nil
	clear(s.retained)
	s.retained = s.retained[:0]
}

// Clone deep-copies the core (model-checker state forking). Payloads
// are shared — they are opaque and immutable to the core.
func (s *SendCore) Clone() *SendCore {
	c := &SendCore{rules: s.rules, next: make(map[int]uint64, len(s.next))}
	for k, v := range s.next {
		c.next[k] = v
	}
	if s.peer != nil {
		c.peer = make(map[int]uint64, len(s.peer))
		for k, v := range s.peer {
			c.peer[k] = v
		}
	}
	c.retained = append([]Retained(nil), s.retained...)
	return c
}

// RecvVerdict is the receiver core's decision about one arriving data
// frame.
type RecvVerdict int

const (
	// VerdictAccept delivers the frame to the mailbox and advances the
	// stream's accepted count.
	VerdictAccept RecvVerdict = iota
	// VerdictDuplicate drops a frame whose sequence was already
	// accepted (a resend or regenerated send the suppression missed).
	VerdictDuplicate
	// VerdictStale drops a frame stamped by a dead epoch (pre-Reset
	// traffic still in flight).
	VerdictStale
	// VerdictGap rejects a frame arriving above the accepted watermark:
	// an earlier frame of the stream was lost without a reconnect to
	// recover it, so the link must fail rather than reorder.
	VerdictGap
)

func (v RecvVerdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictStale:
		return "stale"
	case VerdictGap:
		return "gap"
	default:
		return "unknown"
	}
}

// RecvCore is the receiver half of one directed link's resume protocol:
// the per-tag accepted watermarks that drive dedup, gap detection and
// the welcome handshake's advertised counts.
type RecvCore struct {
	rules    ProtocolRules
	accepted map[int]uint64
}

// NewRecvCore returns a fresh receiver core (nothing accepted).
func NewRecvCore(rules ProtocolRules) *RecvCore {
	return &RecvCore{rules: rules, accepted: map[int]uint64{}}
}

// Accept runs the dedup / ordering / epoch protocol for one arriving
// data frame and, on VerdictAccept, advances the stream watermark.
// frameEpoch is the epoch stamped into the frame; meshEpoch is the
// receiver's current epoch.
func (r *RecvCore) Accept(frameEpoch, meshEpoch uint32, tag int, seq uint64) RecvVerdict {
	if frameEpoch != meshEpoch && !r.rules.NoEpochFilter {
		return VerdictStale
	}
	expect := r.accepted[tag]
	if seq < expect {
		if r.rules.NoDedup {
			return VerdictAccept
		}
		return VerdictDuplicate
	}
	if seq > expect {
		return VerdictGap
	}
	r.accepted[tag] = expect + 1
	return VerdictAccept
}

// WelcomeCounts snapshots the per-stream accepted counts a welcome
// frame advertises to a (re)connecting sender.
func (r *RecvCore) WelcomeCounts() map[int]uint64 {
	out := make(map[int]uint64, len(r.accepted))
	for tag, n := range r.accepted {
		out[tag] = n
	}
	return out
}

// SeedAccepted seeds one stream's accepted watermark from a checkpoint
// (RestoreRecvStreams): the next welcome advertises it, so live peers
// resend exactly what this process consumed nothing of.
func (r *RecvCore) SeedAccepted(tag int, count uint64) { r.accepted[tag] = count }

// Accepted reports the stream's accepted watermark.
func (r *RecvCore) Accepted(tag int) uint64 { return r.accepted[tag] }

// ResetEpoch clears every accepted watermark: the next run's streams
// restart at sequence zero.
func (r *RecvCore) ResetEpoch() { clear(r.accepted) }

// Clone deep-copies the core.
func (r *RecvCore) Clone() *RecvCore {
	c := &RecvCore{rules: r.rules, accepted: make(map[int]uint64, len(r.accepted))}
	for k, v := range r.accepted {
		c.accepted[k] = v
	}
	return c
}

// BeatCore decides heartbeat liveness: a beacon whose progress counter
// moved since the last observation — or that reports live wire or
// compute activity — is evidence the peer process is alive, which the
// transport converts into watchdog progress.
type BeatCore struct {
	seen bool
	last uint64
}

// Observe folds one heartbeat in and reports whether it constitutes
// liveness progress.
func (b *BeatCore) Observe(progress uint64, busy bool) bool {
	changed := !b.seen || progress != b.last
	b.seen = true
	b.last = progress
	return changed || busy
}
