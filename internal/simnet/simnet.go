// Package simnet is a discrete-event simulator for executing a compiled
// tile schedule on a model cluster: per-node compute rates and an
// α + size/β network cost, calibrated by default to the paper's testbed
// (16 Pentium-III/500 nodes on switched FastEthernet, MPI over TCP).
//
// The simulator runs the exact §3.2 protocol the real executor runs — one
// message per (predecessor tile, processor direction) delivered at the
// minsucc tile, pack regions j'_k ≥ cc_k — but advances virtual clocks
// instead of touching data. Because every figure in the paper's evaluation
// is a speedup measurement whose shape is governed by the schedule length
// Π·⌊H·j_max⌋ and the per-step compute/communication costs, the simulator
// reproduces the rectangular-vs-non-rectangular comparisons without the
// authors' hardware.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/mpi"
)

// Params is the cluster cost model.
type Params struct {
	// IterTime is the seconds of CPU per iteration point (per lattice
	// point of the nest, independent of Width — kernels stream all their
	// arrays in one pass).
	IterTime float64
	// ValueBytes is the wire size of one value (8 for float64).
	ValueBytes int
	// Width is the number of values per iteration point (ADI carries 2).
	Width int
	// Latency is the one-way network latency per message (α).
	Latency float64
	// Bandwidth is the sustained network bandwidth in bytes/second (β).
	Bandwidth float64
	// SendOverhead/RecvOverhead are per-message CPU costs (MPI stack,
	// system calls).
	SendOverhead float64
	RecvOverhead float64
	// PackTime is the CPU cost per value for packing or unpacking.
	PackTime float64
	// Overlap enables the computation–communication overlapping scheme of
	// the paper's future-work reference [8]: the sender's CPU only pays
	// SendOverhead and the transfer itself proceeds on the NIC in the
	// background.
	Overlap bool
}

// FastEthernetPIII returns the cost model of the paper's testbed: 500 MHz
// Pentium III nodes (≈100 ns per stencil iteration at -O2) on switched
// FastEthernet with TCP MPI (≈70 µs one-way latency, ≈11 MB/s sustained).
func FastEthernetPIII() Params {
	return Params{
		IterTime:     100e-9,
		ValueBytes:   8,
		Width:        1,
		Latency:      70e-6,
		Bandwidth:    11e6,
		SendOverhead: 30e-6,
		RecvOverhead: 30e-6,
		PackTime:     20e-9,
	}
}

// NetOptions translates the cost model into the runtime's injected
// wire-cost options, so the same parameters drive both the simulator and
// the real executor (mpi.NewWorldOpts / exec.RunOptions.Net): each message
// costs Latency + SendOverhead plus (ValueBytes/Bandwidth + PackTime) per
// value. scale multiplies the modelled durations — the paper's µs-scale
// costs sit below OS timer resolution, so measurements scale them up.
// The runtime pays a rank's message costs one after another on one clock,
// as Simulate's NIC does; whether the sending CPU also waits them out
// (blocking) or computes on (Isend) is the runtime's overlap decision,
// mirroring the Overlap branch of Simulate.
func (p Params) NetOptions(scale float64) mpi.Options {
	perMsg := (p.Latency + p.SendOverhead) * scale
	perVal := (float64(p.ValueBytes)/p.Bandwidth + p.PackTime) * scale
	return mpi.Options{
		LinkLatency: time.Duration(perMsg * float64(time.Second)),
		PerValue:    time.Duration(perVal * float64(time.Second)),
	}
}

// Validate checks the parameters for usability.
func (p Params) Validate() error {
	if p.IterTime <= 0 || p.Bandwidth <= 0 || p.ValueBytes <= 0 || p.Width <= 0 {
		return fmt.Errorf("simnet: IterTime, Bandwidth, ValueBytes and Width must be positive")
	}
	if p.Latency < 0 || p.SendOverhead < 0 || p.RecvOverhead < 0 || p.PackTime < 0 {
		return fmt.Errorf("simnet: negative cost parameter")
	}
	return nil
}

// Result reports one simulated execution.
type Result struct {
	Makespan float64 // parallel completion time (seconds)
	SeqTime  float64 // Points × IterTime: the single-node baseline
	Speedup  float64 // SeqTime / Makespan

	Procs     int
	Tiles     int64
	Points    int64
	Messages  int64
	BytesSent int64

	// Steps is the linear-schedule length Π·(j^S_max − j^S_min) + 1 — the
	// quantity the paper's t_r/t_nr analysis predicts; non-rectangular
	// cone tilings shorten it.
	Steps int64
	// Utilization is total busy CPU time over Procs × Makespan.
	Utilization float64
}

// Simulate runs the tile schedule of a distribution under the cost model
// and returns the timing result.
func Simulate(d *distrib.Distribution, par Params) (*Result, error) {
	return simulate(d, par, nil, nil)
}

// simulate is the engine: under a fault model when fm is non-nil (see
// fault.go for what each fault class does to the clocks), and handing one
// Event per tile to onEvent when that is non-nil (SimulateTraced).
func simulate(d *distrib.Distribution, par Params, fm *FaultModel, onEvent func(Event)) (*Result, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	var fs *faultState
	if fm != nil {
		if err := fm.Plan.Validate(); err != nil {
			return nil, err
		}
		fs = newFaultState(fm, d.NumProcs())
	}
	// The schedule level of the distribution's compiled protocol: the same
	// slots, sends and inbound-message table the executor runs.
	plans := make([]*distrib.RankPlan, d.NumProcs())
	for r := range plans {
		var err error
		if plans[r], err = d.Schedule(r); err != nil {
			return nil, err
		}
	}
	type tileRef struct {
		rank int
		t    int64
		wave int64
	}
	var tiles []tileRef
	for r, rp := range plans {
		for t := range rp.Slots {
			var wave int64
			for _, x := range rp.Slots[t].Tile {
				wave += x
			}
			tiles = append(tiles, tileRef{rank: r, t: int64(t), wave: wave})
		}
	}
	// Π = [1…1] wavefront order is topological for D^S ≥ 0, and it keeps
	// each chain in order (chain tiles differ in j^S_m only).
	sort.Slice(tiles, func(i, j int) bool {
		if tiles[i].wave != tiles[j].wave {
			return tiles[i].wave < tiles[j].wave
		}
		if tiles[i].rank != tiles[j].rank {
			return tiles[i].rank < tiles[j].rank
		}
		return tiles[i].t < tiles[j].t
	})

	res := &Result{Procs: d.NumProcs(), Tiles: int64(len(tiles))}
	procClock := make([]float64, d.NumProcs())
	nicFree := make([]float64, d.NumProcs())
	busy := make([]float64, d.NumProcs())
	// A direction's rows are its stream's wire order, so the k-th message a
	// neighbour sends along it is the k-th row's: arrivals[r][di] holds the
	// arrival times in send order, pos[r][i] is row i's place on its stream
	// and next[r] the first row of rank r's current slot.
	arrivals := make([][][]float64, d.NumProcs())
	pos := make([][]int, d.NumProcs())
	next := make([]int, d.NumProcs())
	for r, rp := range plans {
		arrivals[r] = make([][]float64, len(rp.Rows))
		pos[r] = make([]int, len(rp.Msgs))
		for _, rows := range rp.Rows {
			for k, i := range rows {
				pos[r][i] = k
			}
		}
	}
	minWave, maxWave := int64(math.MaxInt64), int64(math.MinInt64)

	for _, tr := range tiles {
		minWave, maxWave = min(minWave, tr.wave), max(maxWave, tr.wave)
		rp := plans[tr.rank]
		sl := &rp.Slots[tr.t]
		now := procClock[tr.rank]

		// CRASH: the runtime kills the rank at the top of tile k's loop
		// iteration, so the penalty lands before this tile's receive. The
		// downtime (restart delay) is idle; the re-execution of the tiles
		// since the last snapshot is busy CPU.
		if fs != nil && !fs.crashed[tr.rank] && fm.Plan.CrashTile(tr.rank) == tr.t {
			fs.crashed[tr.rank] = true
			if onEvent != nil {
				onEvent(Event{Rank: tr.rank, Tile: fmt.Sprintf("slot=%d", tr.t), Kind: "crash",
					Start: now, RecvDone: now, CompDone: now, End: now})
			}
			now += fm.Plan.RestartDelay.Seconds() / fm.DurScale
			if onEvent != nil {
				onEvent(Event{Rank: tr.rank, Tile: fmt.Sprintf("slot=%d", tr.t), Kind: "restart",
					Start: now, RecvDone: now, CompDone: now, End: now})
			}
			now += fs.reExec[tr.rank]
			busy[tr.rank] += fs.reExec[tr.rank]
		}

		// redo accumulates what re-executing this tile after a later crash
		// would cost: unpack and pack repeat, the wire and the MPI stack
		// overheads do not (receives replay locally, delivered sends skip).
		var redo float64
		ev := Event{Rank: tr.rank, Start: now}

		// RECEIVE: wait for each of the slot's rows, then pay unpack CPU.
		// The model charges a tile's receives in tile-dependence order (the
		// table lists them in claim order), as it always has.
		lo := next[tr.rank]
		hi := lo
		for hi < len(rp.Msgs) && rp.Msgs[hi].T == tr.t {
			hi++
		}
		next[tr.rank] = hi
		for si := range d.TS.DS {
			for i := lo; i < hi; i++ {
				m := &rp.Msgs[i]
				if m.DS != si {
					continue
				}
				sent := arrivals[tr.rank][m.Dir]
				if pos[tr.rank][i] >= len(sent) {
					return nil, fmt.Errorf("simnet: message %d along %v for tile %v not yet sent — schedule order broken", pos[tr.rank][i], d.DM[m.Dir], sl.Tile)
				}
				if arr := sent[pos[tr.rank][i]]; arr > now {
					ev.Waited += arr - now
					now = arr // idle wait: not busy time
				}
				unpack := float64(m.Count*int64(par.Width)) * par.PackTime
				cpu := par.RecvOverhead + unpack
				now += cpu
				busy[tr.rank] += cpu
				redo += unpack
			}
		}

		ev.RecvDone = now

		// COMPUTE.
		res.Points += sl.Npts
		comp := float64(sl.Npts) * par.IterTime
		if fs != nil {
			comp *= fm.Plan.SlowdownOf(tr.rank)
		}
		now += comp
		busy[tr.rank] += comp
		redo += comp
		ev.CompDone = now

		// SEND: one message per processor direction with a valid successor.
		for _, snd := range sl.Sends {
			dst := rp.SendRank[snd.Dir]
			bytes := float64(snd.Count*int64(par.Width)) * float64(par.ValueBytes)
			pack := float64(snd.Count*int64(par.Width)) * par.PackTime
			// Injected link delay, jitter and retry backoffs hit this
			// message before transmission, paid where the runtime pays them:
			// the sender's CPU in blocking mode, its NIC in overlap mode.
			var pert float64
			if fs != nil {
				pert = fs.sendPerturbation(tr.rank, dst)
			}
			var arrive float64
			if par.Overlap {
				cpu := pack + par.SendOverhead
				now += cpu
				busy[tr.rank] += cpu
				start := math.Max(nicFree[tr.rank], now)
				nicFree[tr.rank] = start + pert + bytes/par.Bandwidth
				arrive = nicFree[tr.rank] + par.Latency
			} else {
				cpu := pack + par.SendOverhead + pert + bytes/par.Bandwidth
				now += cpu
				busy[tr.rank] += cpu
				arrive = now + par.Latency
			}
			arrivals[dst][snd.Dir] = append(arrivals[dst][snd.Dir], arrive)
			res.Messages++
			res.BytesSent += int64(bytes)
			redo += pack
		}

		procClock[tr.rank] = now
		ev.End = now
		if onEvent != nil {
			ev.Tile = sl.Tile.String()
			onEvent(ev)
		}
		if fs != nil {
			// Snapshot boundary: after committing tile t with (t+1) a
			// multiple of Every, a crash no longer re-executes anything up
			// to and including t.
			if (tr.t+1)%fm.CheckpointEvery == 0 {
				fs.reExec[tr.rank] = 0
			} else {
				fs.reExec[tr.rank] += redo
			}
		}
	}

	for _, c := range procClock {
		res.Makespan = max(res.Makespan, c)
	}
	var totalBusy float64
	for _, b := range busy {
		totalBusy += b
	}
	res.SeqTime = float64(res.Points) * par.IterTime
	if res.Makespan > 0 {
		res.Speedup = res.SeqTime / res.Makespan
		res.Utilization = totalBusy / (float64(res.Procs) * res.Makespan)
	}
	if len(tiles) > 0 {
		res.Steps = maxWave - minWave + 1
	}
	return res, nil
}
