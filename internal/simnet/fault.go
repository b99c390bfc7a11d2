package simnet

import (
	"tilespace/internal/distrib"
	"tilespace/internal/mpi"
)

// Fault modeling: the simulator advances the same cost model under the
// same mpi.FaultPlan the runtime injects, so bench can compare predicted
// degradation against measured degradation for straggler, slow-link,
// retry-storm and crash-restart scenarios. The two layers share the
// plan's decision methods — LinkExtraDelay and SendBackoffs keyed by the
// same per-link message sequence numbers (both transmit each link's
// messages in issue order) — so prediction and measurement perturb
// exactly the same messages by exactly the same amounts.
//
// What each fault class does to the model:
//
//   - Slowdown[r] multiplies rank r's compute time, as the runtime
//     multiplies its injected PointDelay.
//   - Link delay/jitter and retry backoffs are paid where the runtime
//     pays them: on the sender's CPU in blocking mode, on the sender's
//     NIC in overlap mode, and they push the message's arrival out.
//   - Crash[r] = k charges rank r, at tile k, the restart delay plus the
//     re-execution of the tiles since its last checkpoint. Re-execution
//     repeats unpack and compute and repacks messages, but skips the
//     wire: receives replay from the local log and every send the crashed
//     incarnation issued is skipped. That is exact in both modes: the
//     runtime's crash loses no issued send, in flight or not.

// FaultModel configures a faulty simulation.
type FaultModel struct {
	// Plan is the same schedule handed to the runtime.
	Plan *mpi.FaultPlan
	// CheckpointEvery mirrors exec.CheckpointOptions.Every — the snapshot
	// period that bounds how far a crashed rank rewinds. Values < 1 mean 1.
	CheckpointEvery int64
	// DurScale converts the plan's wall-clock durations into model
	// seconds. The runtime scales model costs up by the experiment's cost
	// scale (Params.NetOptions(scale)), so the plan's sleeps divide by the
	// same factor to land back in model units. Values <= 0 mean 1.
	DurScale float64
}

// SimulateFaults runs the tile schedule under the fault model.
func SimulateFaults(d *distrib.Distribution, par Params, fm FaultModel) (*Result, error) {
	return simulateFaults(d, par, fm.normalize(), nil)
}

func (fm FaultModel) normalize() *FaultModel {
	if fm.CheckpointEvery < 1 {
		fm.CheckpointEvery = 1
	}
	if fm.DurScale <= 0 {
		fm.DurScale = 1
	}
	return &fm
}

// faultState is the engine's per-run fault bookkeeping.
type faultState struct {
	fm *FaultModel
	// linkSeq numbers each directed link's transmitted messages, mirroring
	// the runtime's World counters: both sides transmit a link's messages
	// in issue order, so equal seq means the same message.
	linkSeq map[[2]int]int64
	// reExec[r] accumulates the CPU a crash at this point would have to
	// repeat: unpack + compute + pack of the tiles committed since rank
	// r's last snapshot. Reset at each snapshot boundary.
	reExec  []float64
	crashed []bool
}

func newFaultState(fm *FaultModel, procs int) *faultState {
	return &faultState{
		fm:      fm,
		linkSeq: map[[2]int]int64{},
		reExec:  make([]float64, procs),
		crashed: make([]bool, procs),
	}
}

// sendPerturbation returns the injected model-seconds the next message on
// src→dst suffers before transmission: fixed delay, jitter share and the
// sum of its retry backoffs, all decided by the shared seeded hash.
func (fs *faultState) sendPerturbation(src, dst int) float64 {
	seq := fs.linkSeq[[2]int{src, dst}]
	fs.linkSeq[[2]int{src, dst}] = seq + 1
	plan := fs.fm.Plan
	extra := plan.LinkExtraDelay(src, dst, seq)
	for _, b := range plan.SendBackoffs(src, dst, seq) {
		extra += b
	}
	return extra.Seconds() / fs.fm.DurScale
}
