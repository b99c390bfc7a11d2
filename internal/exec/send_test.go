package exec

import (
	"runtime"
	"testing"

	"tilespace/internal/mpi"
)

// A rank packs every payload of a run into one send array (pack.go). These
// tests look at the rank states a finished run leaves on its Program.

// heldStates returns the rank states p holds after a run, failing if a rank
// has none.
func heldStates(t *testing.T, p *Program) []*rankState {
	t.Helper()
	sts := make([]*rankState, p.Dist.NumProcs())
	for r := range sts {
		if sts[r] = p.idle[r].Load(); sts[r] == nil {
			t.Fatalf("rank %d: no state held after a run", r)
		}
	}
	return sts
}

// crashOpt crashes the middle rank halfway through its chain, recovered in
// memory from snapshots taken every `every` tiles.
func crashOpt(p *Program, every int64) RunOptions {
	r := p.Dist.NumProcs() / 2
	return RunOptions{
		Net:        mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{r: p.Dist.ChainLen[r] / 2}}},
		Checkpoint: &CheckpointOptions{Every: every},
	}
}

// TestSendArrayCursorEndsAtItsEnd: after a fault-free run and after an
// in-memory crash-restart run, every rank's cursor stands exactly at the end
// of its send array: each payload of the chain was packed once, none of the
// crashed incarnation's slots below the replay bound twice.
func TestSendArrayCursorEndsAtItsEnd(t *testing.T) {
	for name, p := range map[string]*Program{"sor-nr": planProgram(t), "adi-nr3": adiProgram(t)} {
		for _, mode := range []string{"fault-free", "crash-restart"} {
			opt := RunOptions{}
			if mode == "crash-restart" {
				opt = crashOpt(p, 2)
			}
			if _, _, err := p.RunParallelOpts(opt); err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			crashed := false
			for r, st := range heldStates(t, p) {
				if st.sendAt != len(st.sends) {
					t.Errorf("%s %s: rank %d packed %d values of its send array's %d", name, mode, r, st.sendAt, len(st.sends))
				}
				crashed = crashed || st.ckpt != nil && st.ckpt.replayTo > 0
			}
			if crashed != (mode == "crash-restart") {
				t.Fatalf("%s %s: a rank crashed: %v", name, mode, crashed)
			}
		}
	}
}

// TestHeldPayloadAliasesSendArray: a payload in-memory recovery holds is a
// slice of its sender's send array, not a copy — whether it came from a
// sibling of the receiver's group or through the world, with or without a
// crash. With no snapshot past tile zero a rank holds every payload it
// claimed.
func TestHeldPayloadAliasesSendArray(t *testing.T) {
	p := adiProgram(t)
	for _, opt := range []RunOptions{{Checkpoint: &CheckpointOptions{Every: 1 << 40}}, crashOpt(p, 1<<40)} {
		if _, _, err := p.RunParallelOpts(opt); err != nil {
			t.Fatal(err)
		}
		sts := heldStates(t, p)
		held := 0
		for _, st := range sts {
			if len(st.ckpt.held) != len(st.Msgs) {
				t.Fatalf("rank %d holds %d payloads, claimed %d", st.rank, len(st.ckpt.held), len(st.Msgs))
			}
			for _, h := range st.ckpt.held {
				src := sts[st.RecvRank[st.Msgs[h.row].Dir]].sends
				at := cap(src) - cap(h.data)
				if at < 0 || at+len(h.data) > len(src) || &src[at] != &h.data[0] {
					t.Fatalf("rank %d row %d: the held payload is not a slice of rank %d's send array", st.rank, h.row, st.RecvRank[st.Msgs[h.row].Dir])
				}
				held++
			}
		}
		if held == 0 {
			t.Fatal("no rank holds a payload")
		}
	}
}

// TestSendArrayReusedAcrossGC: a run after two collections packs into the
// send arrays the run before it did.
func TestSendArrayReusedAcrossGC(t *testing.T) {
	p := planProgram(t)
	if _, _, err := p.RunParallelOpts(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	before := map[int]*float64{}
	for r, st := range heldStates(t, p) {
		if len(st.sends) > 0 {
			before[r] = &st.sends[0]
		}
	}
	if len(before) == 0 {
		t.Fatal("no rank sends")
	}
	runtime.GC()
	runtime.GC()
	if _, _, err := p.RunParallelOpts(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for r, st := range heldStates(t, p) {
		if want, ok := before[r]; ok && &st.sends[0] != want {
			t.Errorf("rank %d packs into a new send array after two GCs", r)
		}
	}
}
