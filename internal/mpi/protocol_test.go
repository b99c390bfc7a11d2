package mpi

import "testing"

func TestSendCoreStampRetainResend(t *testing.T) {
	s := NewSendCore(ProtocolRules{})
	for i := 0; i < 3; i++ {
		seq := s.Stamp(7)
		if seq != uint64(i) {
			t.Fatalf("Stamp #%d = %d", i, seq)
		}
		s.Retain(7, seq, nil)
	}
	if s.Stamp(9) != 0 {
		t.Fatalf("fresh tag should stamp from 0")
	}

	// Before any handshake everything transmits.
	if !s.ShouldTransmit(7, 0) {
		t.Fatalf("pre-handshake frame suppressed")
	}

	// Welcome says the peer accepted 2 frames on tag 7.
	s.ObserveWelcome(map[int]uint64{7: 2})
	if s.ShouldTransmit(7, 0) || s.ShouldTransmit(7, 1) {
		t.Fatalf("acknowledged frames not suppressed")
	}
	if !s.ShouldTransmit(7, 2) || !s.ShouldTransmit(7, 3) {
		t.Fatalf("unacknowledged frames suppressed")
	}

	plan := s.ResendPlan()
	if len(plan) != 1 || plan[0].Tag != 7 || plan[0].Seq != 2 {
		t.Fatalf("ResendPlan = %+v, want the single unacknowledged frame (7, 2)", plan)
	}
}

func TestSendCoreMutations(t *testing.T) {
	mk := func(rules ProtocolRules) *SendCore {
		s := NewSendCore(rules)
		s.Retain(0, s.Stamp(0), nil)
		s.Retain(0, s.Stamp(0), nil)
		s.ObserveWelcome(map[int]uint64{0: 1})
		return s
	}

	// Correct protocol: resend from seq 1, suppress only seq 0.
	s := mk(ProtocolRules{})
	if got := s.ResendPlan(); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("baseline ResendPlan = %+v", got)
	}
	if !s.ShouldTransmit(0, 1) {
		t.Fatalf("baseline suppressed an unacknowledged frame")
	}

	// ResendOffByOne drops the first missing frame from the plan.
	if got := mk(ProtocolRules{ResendOffByOne: true}).ResendPlan(); len(got) != 0 {
		t.Fatalf("ResendOffByOne plan = %+v, want empty (the bug)", got)
	}

	// OverSuppress suppresses the first unacknowledged frame.
	if mk(ProtocolRules{OverSuppress: true}).ShouldTransmit(0, 1) {
		t.Fatalf("OverSuppress transmitted seq 1 (should exhibit the bug)")
	}
}

func TestSendCoreSeedAndCounts(t *testing.T) {
	s := NewSendCore(ProtocolRules{})
	s.SeedSent(3, 5)
	if s.Stamp(3) != 5 {
		t.Fatalf("seeded stream did not resume at checkpointed count")
	}
	s.Stamp(1)
	if s.NextSeq(1) != 1 || s.NextSeq(3) != 6 {
		t.Fatalf("next sequences (1: %d, 3: %d), want (1: 1, 3: 6)", s.NextSeq(1), s.NextSeq(3))
	}

	s.ResetEpoch()
	if s.NextSeq(1) != 0 || s.NextSeq(3) != 0 || len(s.RetainedFrames()) != 0 {
		t.Fatalf("ResetEpoch did not clear sender state")
	}
	if _, ok := s.PeerCount(3); ok {
		t.Fatalf("ResetEpoch kept handshake state")
	}
}

func TestSendCoreClone(t *testing.T) {
	s := NewSendCore(ProtocolRules{})
	s.Retain(0, s.Stamp(0), nil)
	s.ObserveWelcome(map[int]uint64{0: 1})
	c := s.Clone()
	c.Stamp(0)
	c.ObserveWelcome(map[int]uint64{0: 9})
	c.Retain(0, 1, nil)
	if s.NextSeq(0) != 1 || len(s.RetainedFrames()) != 1 {
		t.Fatalf("mutating clone leaked into original")
	}
	if n, _ := s.PeerCount(0); n != 1 {
		t.Fatalf("clone's welcome leaked into original")
	}
}

func TestRecvCoreVerdicts(t *testing.T) {
	r := NewRecvCore(ProtocolRules{})
	if v := r.Accept(0, 0, 4, 0); v != VerdictAccept {
		t.Fatalf("first frame: %v", v)
	}
	if v := r.Accept(0, 0, 4, 0); v != VerdictDuplicate {
		t.Fatalf("replayed frame: %v", v)
	}
	if v := r.Accept(0, 0, 4, 2); v != VerdictGap {
		t.Fatalf("skipped frame: %v", v)
	}
	if v := r.Accept(1, 2, 4, 1); v != VerdictStale {
		t.Fatalf("dead-epoch frame: %v", v)
	}
	if v := r.Accept(0, 0, 4, 1); v != VerdictAccept {
		t.Fatalf("in-order frame: %v", v)
	}
	if r.Accepted(4) != 2 {
		t.Fatalf("accepted watermark = %d", r.Accepted(4))
	}
	if got := r.WelcomeCounts(); got[4] != 2 {
		t.Fatalf("WelcomeCounts = %v", got)
	}
}

func TestRecvCoreMutations(t *testing.T) {
	// NoDedup accepts a replay without advancing the watermark.
	r := NewRecvCore(ProtocolRules{NoDedup: true})
	r.Accept(0, 0, 0, 0)
	if v := r.Accept(0, 0, 0, 0); v != VerdictAccept {
		t.Fatalf("NoDedup replay: %v, want accept (the bug)", v)
	}
	if r.Accepted(0) != 1 {
		t.Fatalf("NoDedup replay advanced the watermark")
	}

	// NoEpochFilter accepts dead-epoch frames.
	r = NewRecvCore(ProtocolRules{NoEpochFilter: true})
	if v := r.Accept(3, 7, 0, 0); v != VerdictAccept {
		t.Fatalf("NoEpochFilter: %v, want accept (the bug)", v)
	}
}

func TestRecvCoreSeedResetClone(t *testing.T) {
	r := NewRecvCore(ProtocolRules{})
	r.SeedAccepted(2, 4)
	if v := r.Accept(0, 0, 2, 3); v != VerdictDuplicate {
		t.Fatalf("pre-checkpoint frame: %v", v)
	}
	if v := r.Accept(0, 0, 2, 4); v != VerdictAccept {
		t.Fatalf("post-checkpoint frame: %v", v)
	}

	c := r.Clone()
	c.Accept(0, 0, 2, 5)
	if r.Accepted(2) != 5 {
		t.Fatalf("clone mutation leaked into original")
	}

	r.ResetEpoch()
	if r.Accepted(2) != 0 {
		t.Fatalf("ResetEpoch kept watermark")
	}
}

func TestRecvVerdictString(t *testing.T) {
	cases := map[RecvVerdict]string{
		VerdictAccept:    "accept",
		VerdictDuplicate: "duplicate",
		VerdictStale:     "stale",
		VerdictGap:       "gap",
		RecvVerdict(99):  "unknown",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("%d.String() = %q", int(v), v.String())
		}
	}
}

func TestBeatCore(t *testing.T) {
	var b BeatCore
	if !b.Observe(0, false) {
		t.Fatalf("first beacon should be progress")
	}
	if b.Observe(0, false) {
		t.Fatalf("unchanged idle beacon should not be progress")
	}
	if !b.Observe(0, true) {
		t.Fatalf("busy beacon should be progress")
	}
	if !b.Observe(1, false) {
		t.Fatalf("moved counter should be progress")
	}
}
