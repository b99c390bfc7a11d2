package mpi

import (
	"fmt"
	"time"
)

// This file is the runtime's deterministic fault-injection layer. A
// FaultPlan perturbs an otherwise reliable world — slow ranks, slow or
// jittery links, transient send failures, a rank crash — and every decision
// is a pure function of (Seed, link, per-link message sequence, attempt).
// Per-link message order is the program's, so two runs with one plan
// perturb the same messages by the same amounts however goroutines
// interleave: the chaos tests assert bit-identical results, and simnet
// predicts a measured run's degradation. Link delay, jitter and retry
// backoff add to a message's wire cost like Options.LinkLatency; compute
// slowdown and the crash point are the executor's (exec.RunOptions.Net).

// Link identifies a directed rank pair.
type Link struct {
	Src, Dst int
}

// LinkFault is one link's injected wire perturbation: every message on
// the link is delayed by Delay plus a seeded pseudo-random extra in
// [0, Jitter).
type LinkFault struct {
	Delay  time.Duration
	Jitter time.Duration
}

// SendFaults injects transient send failures: each attempt fails with
// probability Rate (by the seeded hash, so deterministically per message),
// the sender backs off Backoff·2^k after the k-th consecutive failure, and
// the attempt after MaxRetries failures succeeds — a retransmit storm that
// gets through. A message is counted once, so Stats stay deterministic.
type SendFaults struct {
	Rate       float64
	MaxRetries int
	Backoff    time.Duration
}

// FaultPlan is a deterministic, seedable fault schedule for one run.
// The zero value injects nothing; a nil plan is always legal.
type FaultPlan struct {
	// Seed drives every pseudo-random decision. Equal seeds (and equal
	// traffic) mean equal faults.
	Seed int64
	// Slowdown multiplies rank r's injected per-point compute cost
	// (exec.RunOptions.PointDelay) by Slowdown[r] — the straggler knob.
	// Factors below 1 are ignored.
	Slowdown map[int]float64
	// Links adds per-link delay and jitter on top of the world's
	// LinkLatency/PerValue wire cost.
	Links map[Link]LinkFault
	// Sends, when non-nil, injects transient send failures on every link.
	Sends *SendFaults
	// Crash[r] = k makes rank r crash when it reaches tile index k of its
	// chain (first incarnation only). The executor simulates the crash:
	// issued sends are delivered, and the rank either restarts from its
	// last checkpoint (RunOptions.Checkpoint) or aborts the run.
	Crash map[int]int64
	// RestartDelay models the time a crashed rank needs to come back
	// (reboot, rejoin, restore); the executor sleeps it before restoring.
	RestartDelay time.Duration
}

// splitmix64 is the stateless hash behind every fault decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the plan seed and the decision coordinates into one uniform
// 64-bit value.
func (fp *FaultPlan) mix(parts ...int64) uint64 {
	h := splitmix64(uint64(fp.Seed))
	for _, p := range parts {
		h = splitmix64(h ^ uint64(p))
	}
	return h
}

// frac maps the decision coordinates to a uniform float64 in [0, 1).
func (fp *FaultPlan) frac(parts ...int64) float64 {
	return float64(fp.mix(parts...)>>11) / float64(1<<53)
}

// decision-space tags keep the independent fault classes decorrelated.
const (
	faultTagJitter = iota + 1
	faultTagSendFail
)

// LinkExtraDelay returns the injected extra delay of the seq-th message
// on src→dst: the link's fixed Delay plus its seeded jitter share. Both
// the runtime (which adds it to the message's due time) and the simulator
// (which adds it to the modelled arrival) call this, so prediction and
// measurement perturb the same messages identically.
func (fp *FaultPlan) LinkExtraDelay(src, dst int, seq int64) time.Duration {
	if fp == nil || fp.Links == nil {
		return 0
	}
	lf, ok := fp.Links[Link{src, dst}]
	if !ok {
		return 0
	}
	d := lf.Delay
	if lf.Jitter > 0 {
		d += time.Duration(fp.frac(faultTagJitter, int64(src), int64(dst), seq) * float64(lf.Jitter))
	}
	return d
}

// SendBackoffs returns the backoffs the seq-th message on src→dst suffers
// before its transmission finally succeeds: one entry per failed attempt,
// exponentially growing, at most MaxRetries long. The runtime and the
// simulator both add their sum to the message's wire cost.
func (fp *FaultPlan) SendBackoffs(src, dst int, seq int64) []time.Duration {
	if fp == nil || fp.Sends == nil || fp.Sends.Rate <= 0 || fp.Sends.MaxRetries <= 0 {
		return nil
	}
	sf := fp.Sends
	var out []time.Duration
	backoff := sf.Backoff
	for attempt := 0; attempt < sf.MaxRetries; attempt++ {
		if fp.frac(faultTagSendFail, int64(src), int64(dst), seq, int64(attempt)) >= sf.Rate {
			break
		}
		out = append(out, backoff)
		backoff *= 2
	}
	return out
}

// SlowdownOf returns rank's compute slowdown factor (≥ 1).
func (fp *FaultPlan) SlowdownOf(rank int) float64 {
	if fp == nil || fp.Slowdown == nil {
		return 1
	}
	if s, ok := fp.Slowdown[rank]; ok && s > 1 {
		return s
	}
	return 1
}

// CrashTile returns the tile index at which rank crashes, or -1.
func (fp *FaultPlan) CrashTile(rank int) int64 {
	if fp == nil || fp.Crash == nil {
		return -1
	}
	if k, ok := fp.Crash[rank]; ok {
		return k
	}
	return -1
}

// Validate checks the plan for usability.
func (fp *FaultPlan) Validate() error {
	if fp == nil {
		return nil
	}
	if fp.Sends != nil {
		sf := fp.Sends
		if sf.Rate < 0 || sf.Rate > 1 {
			return fmt.Errorf("mpi: FaultPlan send-failure rate %g outside [0,1]", sf.Rate)
		}
		if sf.Rate > 0 && (sf.MaxRetries <= 0 || sf.Backoff <= 0) {
			return fmt.Errorf("mpi: FaultPlan send failures need positive MaxRetries and Backoff")
		}
	}
	for r, k := range fp.Crash {
		if r < 0 || k < 0 {
			return fmt.Errorf("mpi: FaultPlan crash entry rank %d tile %d must be non-negative", r, k)
		}
	}
	return nil
}

// linkSeq hands out the next per-link message sequence number. Only the
// owning rank's send path increments a given link, so the sequence mirrors
// issue order; the atomic keeps a rank sending from several goroutines
// race-free.
func (w *World) linkSeq(src, dst int) int64 {
	return w.linkSeqs[src*w.size+dst].Add(1) - 1
}

// FaultSleep sleeps d as injected fault time, counted as progress on wake.
// The executor uses it for modelled outage time (FaultPlan.RestartDelay).
// The sleeping rank is active and not parked in a wait, so the deadlock
// watchdog reads the outage as activity. Skipped when the world is already
// tearing down.
func (c *Comm) FaultSleep(d time.Duration) {
	if d <= 0 || c.world.aborted.Load() {
		return
	}
	time.Sleep(d)
	c.world.progress.Add(1)
}

// sendFaultDelay returns the plan's extra wire cost of one transmission on
// src→dst — the link's delay, then each transient failure's backoff — and
// counts the failures survived against src.
func (w *World) sendFaultDelay(src, dst int) time.Duration {
	fp := w.opts.Faults
	if fp == nil {
		return 0
	}
	seq := w.linkSeq(src, dst)
	d := fp.LinkExtraDelay(src, dst, seq)
	backoffs := fp.SendBackoffs(src, dst, seq)
	for _, b := range backoffs {
		d += b
	}
	w.perRank[src].sendRetries.Add(int64(len(backoffs)))
	return d
}
