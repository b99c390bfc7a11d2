package wirecheck

import "tilespace/internal/mpi"

// NamedConfig is one certification matrix entry.
type NamedConfig struct {
	Name string
	Cfg  Config
}

// DefaultMatrix is the standing certificate: the configurations CI
// model-checks on every run with the shipped (zero) ProtocolRules. The
// entries are chosen to cover every protocol mechanism — deep
// single-link fault sequences, concurrent bidirectional traffic, epoch
// reset racing in-flight frames, checkpointed crash-relaunch, and a
// three-rank relay whose middle rank crashes — while keeping each state
// space small enough to exhaust in seconds.
func DefaultMatrix() []NamedConfig {
	return []NamedConfig{
		{
			// Every pairwise fault interleaving on one deep link: two
			// tags share the connection, so resend plans and welcomes
			// carry multi-stream state.
			Name: "single-link-deep",
			Cfg: Config{
				Ranks:    2,
				Links:    []Link{{Src: 0, Dst: 1, Tags: []int{0, 1}, Msgs: 3}},
				MaxDrops: 2,
				MaxDups:  2,
			},
		},
		{
			// Both directions live at once, and one epoch reset may fire
			// at any point with frames of the old run still in flight.
			Name: "bidirectional-reset",
			Cfg: Config{
				Ranks: 2,
				Links: []Link{
					{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 2},
					{Src: 1, Dst: 0, Tags: []int{0}, Msgs: 2},
				},
				MaxDrops:  1,
				MaxDups:   1,
				Reset:     true,
				ResetMsgs: 1,
			},
		},
		{
			// A rank that talks in both directions checkpoints at any
			// flushed point and crash-relaunches at any later point,
			// seeding fresh cores the way mpi.NewTCPMesh does. No
			// network drops: crash recovery is the single-fault
			// guarantee under certification here (see the fail-stop
			// entry for the drop+crash double fault).
			Name: "crash-recovery",
			Cfg: Config{
				Ranks: 2,
				Links: []Link{
					// Two tags share the inbound link, so the crashed
					// rank's checkpoint and welcome carry multi-stream
					// state.
					{Src: 0, Dst: 1, Tags: []int{0, 1}, Msgs: 1},
					{Src: 1, Dst: 0, Tags: []int{0}, Msgs: 2},
				},
				MaxDups:    1,
				CrashRanks: []int{1},
				Checkpoint: true,
			},
		},
		{
			// Three ranks, relay topology: the middle rank both receives
			// and sends, and is the one that crashes.
			Name: "three-rank-relay",
			Cfg: Config{
				Ranks: 3,
				Links: []Link{
					{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 2},
					{Src: 1, Dst: 2, Tags: []int{0}, Msgs: 2},
				},
				MaxDups:    1,
				CrashRanks: []int{1},
				Checkpoint: true,
			},
		},
		{
			// Crash with NO checkpoint: the relaunched rank restarts from
			// scratch and re-executes the whole run; dedup and
			// suppression must absorb the full replay.
			Name: "crash-from-scratch",
			Cfg: Config{
				Ranks: 2,
				Links: []Link{
					{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 2},
					{Src: 1, Dst: 0, Tags: []int{0}, Msgs: 2},
				},
				CrashRanks: []int{1},
			},
		},
		{
			// Network loss combined with a sender crash before its
			// reconnect exceeds the single-fault recovery guarantee by
			// design: the only copy of a dropped frame was the retained
			// archive that died with the process. The certificate here
			// is fail-stop: loss may happen but is always detected (gap
			// → run fails loudly), and no path ever consumes a frame
			// twice, out of order, or across an epoch.
			Name: "drop-plus-crash-failstop",
			Cfg: Config{
				Ranks: 2,
				Links: []Link{
					{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 2},
					{Src: 1, Dst: 0, Tags: []int{0}, Msgs: 2},
				},
				MaxDrops:          1,
				CrashRanks:        []int{1},
				Checkpoint:        true,
				AllowDetectedLoss: true,
			},
		},
	}
}

// NamedMutation is one seeded protocol bug the matrix must reject.
type NamedMutation struct {
	Name  string
	Rules mpi.ProtocolRules
	// Cfg is a small configuration on which the mutation is provably
	// fatal (kept tiny so the counterexample trace is short).
	Cfg Config
}

// Mutations are the seeded bugs: each re-creates a plausible
// implementation error in the resume protocol, and Check must reject
// each with a concrete counterexample trace. A mutation that
// certifies cleanly means the corresponding decision point in the
// protocol core is no longer load-bearing — itself a finding.
func Mutations() []NamedMutation {
	twoWithFaults := func(rules mpi.ProtocolRules) Config {
		return Config{
			Ranks:    2,
			Links:    []Link{{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 2}},
			MaxDrops: 1,
			MaxDups:  1,
			Rules:    rules,
		}
	}
	return []NamedMutation{
		{
			// Receiver dedup removed: a duplicated delivery is consumed
			// twice.
			Name:  "dedup-removed",
			Rules: mpi.ProtocolRules{NoDedup: true},
			Cfg:   twoWithFaults(mpi.ProtocolRules{NoDedup: true}),
		},
		{
			// Reconnect resend plan off by one (seq > accepted instead
			// of seq >= accepted): the first unacknowledged frame is
			// never redelivered.
			Name:  "resend-off-by-one",
			Rules: mpi.ProtocolRules{ResendOffByOne: true},
			Cfg:   twoWithFaults(mpi.ProtocolRules{ResendOffByOne: true}),
		},
		{
			// Sender suppression off by one (seq <= accepted instead of
			// seq < accepted): a frame the peer never saw is suppressed.
			// No faults needed — the initial handshake's welcome (zero
			// accepted) already arms the buggy filter against seq 0.
			Name:  "over-suppress",
			Rules: mpi.ProtocolRules{OverSuppress: true},
			Cfg: Config{
				Ranks: 2,
				Links: []Link{{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 1}},
				Rules: mpi.ProtocolRules{OverSuppress: true},
			},
		},
		{
			// Epoch filter dropped: a frame stamped before a reset is
			// consumed by the next run.
			Name:  "epoch-filter-dropped",
			Rules: mpi.ProtocolRules{NoEpochFilter: true},
			Cfg: Config{
				Ranks:     2,
				Links:     []Link{{Src: 0, Dst: 1, Tags: []int{0}, Msgs: 1}},
				Reset:     true,
				ResetMsgs: 1,
				Rules:     mpi.ProtocolRules{NoEpochFilter: true},
			},
		},
	}
}
