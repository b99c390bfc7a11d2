package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/serve"
)

// runSpec describes a workload whose operation is one
// exec.Program.RunParallelOpts call on a compiled shipped app.
type runSpec struct {
	name string
	unit func(small bool) (unit, error)
	opts exec.RunOptions
	// tcp runs over one loopback-TCP world dialled in set-up and Reset
	// by the executor per run (as serve's pool and a long-lived tilerankd
	// mesh do); otherwise every run builds a fresh channel world, as a
	// RunParallel caller gets.
	tcp bool
	// modes also times the blocking and the dynamic executor in the
	// traced pass (five runs each), the baselines a scheduling claim must
	// be quoted against.
	modes bool
}

var (
	sorFine = runSpec{
		name: "sor_fine", unit: sorUnit, modes: true,
		opts: exec.RunOptions{Overlap: true, Workers: 1},
	}
	sorFineTCP = runSpec{
		name: "sor_fine_tcp", unit: sorUnit, tcp: true, modes: true,
		opts: exec.RunOptions{Overlap: true, Workers: 1},
	}
	jacobiCoarse = runSpec{
		name: "jacobi_coarse",
		unit: func(small bool) (unit, error) {
			t, n, y, z := int64(8), int64(192), int64(102), int64(204)
			if small {
				t, n, y, z = 4, 24, 16, 32
			}
			a, err := apps.Jacobi(t, n)
			if err != nil {
				return unit{}, err
			}
			return unit{name: "jacobi_rect", app: a, h: a.Rect.H(2, y, z), fixed: true}, nil
		},
		opts: exec.RunOptions{Overlap: true},
	}
)

func sorUnit(small bool) (unit, error) {
	m, n := int64(10), int64(40)
	if small {
		m, n = 4, 12
	}
	a, err := apps.SOR(m, n)
	if err != nil {
		return unit{}, err
	}
	return unit{name: "sor_nr", app: a, h: a.NonRect[0].H(2, 4, 4), fixed: true}, nil
}

// checksum folds every computed value of g, bit for bit, with the
// service's own digest, so run workloads and /v1/run answers are
// comparable.
func checksum(p *exec.Program, g *exec.Global) string {
	return (&serve.Artifact{Prog: p}).Checksum(g)
}

// runner is a run workload after set-up.
type runner struct {
	spec   runSpec
	small  bool
	c      *compiled
	world  *mpi.World // pooled TCP world; nil on the channel fabric
	opts   exec.RunOptions
	refSum string    // checksum of the RunSequential reference
	stats  mpi.Stats // traffic of the warm-up run; every run must repeat it
	points int64
}

func (s runSpec) setup(cfg config, rec *recorder) (instance, error) {
	u, err := s.unit(cfg.small)
	if err != nil {
		return nil, err
	}
	root := rec.begin("setup", -1, 0)
	defer rec.end(root)
	r := &runner{spec: s, small: cfg.small, opts: s.opts}
	if r.c, err = compileUnit(u, rec, root, 0, true, false); err != nil {
		return nil, err
	}
	p := r.c.prog
	r.points = p.TS.TotalPoints()

	var ref *exec.Global
	rec.time("exec.RunSequential", root, 0, func() { ref, err = p.RunSequential() })
	if err != nil {
		return nil, fmt.Errorf("%s: sequential reference: %w", s.name, err)
	}
	if d, at := ref.MaxAbsDiff(ref, p.ScanSpace); d != 0 {
		return nil, fmt.Errorf("%s: sequential reference is not a number at %v", s.name, at)
	}
	r.refSum = checksum(p, ref)
	if err := cfg.checkGolden(s.name+"/checksum", r.refSum); err != nil {
		return nil, err
	}

	if s.tcp {
		rec.time("mpi.NewTCPWorld", root, 0, func() { r.world, err = mpi.NewTCPWorld(p.Dist.NumProcs(), mpi.Options{}) })
		if err != nil {
			return nil, fmt.Errorf("%s: dial mesh: %w", s.name, err)
		}
		r.opts.World = r.world
	}
	// One untimed warm-up run: dials the TCP links, fills the executor's
	// plan caches, and is compared value by value with the reference.
	var g *exec.Global
	rec.time("warmup", root, 0, func() { g, r.stats, err = p.RunParallelOpts(r.opts) })
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: warm-up run: %w", s.name, err)
	}
	if d, at := ref.MaxAbsDiff(g, p.ScanSpace); d != 0 {
		r.close()
		return nil, fmt.Errorf("%s: parallel run differs from the sequential reference by %g at %v", s.name, d, at)
	}
	return r, nil
}

func (r *runner) close() {
	if r.world != nil {
		r.world.Close()
		r.world = nil
	}
}

// run is one operation plus its correctness check. The latency (and the
// span, in the traced pass) covers RunParallelOpts call to return only;
// the check runs inside the timed window but outside the clock.
func (r *runner) run(opts exec.RunOptions, rec *recorder, id int) (d time.Duration, root int, err error) {
	root = rec.begin("exec.RunParallelOpts", -1, id)
	t0 := time.Now()
	g, st, err := r.c.prog.RunParallelOpts(opts)
	d = time.Since(t0)
	rec.end(root)
	if err != nil {
		return d, root, err
	}
	if sum := checksum(r.c.prog, g); sum != r.refSum {
		return d, root, fmt.Errorf("%s: result checksum %s, sequential reference %s", r.spec.name, sum, r.refSum)
	}
	if !reflect.DeepEqual(st, r.stats) {
		return d, root, fmt.Errorf("%s: mpi.Stats changed between runs (%d msgs / %d values, first run %d / %d)",
			r.spec.name, st.Messages, st.Values, r.stats.Messages, r.stats.Values)
	}
	return d, root, nil
}

func (r *runner) measure(budget time.Duration) timed {
	return closedLoop(budget, func(int) (time.Duration, error) {
		d, _, err := r.run(r.opts, nil, 0)
		return d, err
	})
}

func (r *runner) layers(budget time.Duration, rec *recorder) (samples, timed) {
	out := samples{}
	self := rec.selfTimes()
	compileLayers(out, self)
	compileCounts(out, []*compiled{r.c})
	out.set("exec.seq_s", self[0]["exec.RunSequential"], 1)

	// Two thirds of the budget on runs that alternate untraced and
	// traced, so that a slow stretch of the host hits both alike and the
	// ratio of their medians is the tracing overhead. A traced run has
	// exec.Tracer attached through the public option; the critical rank's
	// phase totals become children of the run span, and what the rank's
	// span does not cover (world construction, rank state, write-back) is
	// the run span's self time.
	var plain, traced []float64
	var mallocs uint64
	phases := map[string][]float64{}
	largest := 0 // rank with the most tiles
	t := closedLoop(budget*2/3, func(i int) (d time.Duration, err error) {
		if i%2 == 1 {
			if d, err = r.tracedRun(i, rec, phases, &largest); err == nil {
				traced = append(traced, d.Seconds())
			}
			return d, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, _, err = r.run(r.opts, nil, 0)
		runtime.ReadMemStats(&after)
		if err == nil {
			plain = append(plain, d.Seconds())
			mallocs += after.Mallocs - before.Mallocs
		}
		return d, err
	})
	if n := len(plain); n > 0 {
		out.set("exec.mallocs_per_run", float64(mallocs)/float64(n), n)
		out.set("exec.run_p90_s", quantile(plain, 0.90), n)
		if len(traced) > 0 {
			out.set("exec.trace_overhead_ratio", median(traced)/median(plain), len(traced))
		}
	}
	for name, xs := range phases {
		out.set(name, median(xs), len(xs))
	}
	// run() holds every run to the warm-up's Stats, so these speak for all.
	out.set("mpi.msgs", float64(r.stats.Messages), len(t.ops))
	out.set("mpi.values", float64(r.stats.Values), len(t.ops))
	out.set("mpi.values_per_point", float64(r.stats.Values)/float64(r.points), len(t.ops))
	out.set("mpi.overlapped_sends", float64(r.stats.OverlappedSends), len(t.ops))
	out.set("mpi.send_retries", float64(r.stats.SendRetries), len(t.ops))

	if err := r.probes(out, largest); err != nil {
		t.fail(err)
	}
	return out, t
}

// tracedRun is one traced operation: it records the run span, imports
// the critical rank's phase split under it and appends this run's
// per-layer readings to phases.
func (r *runner) tracedRun(run int, rec *recorder, phases map[string][]float64, largest *int) (time.Duration, error) {
	tracer := exec.NewTracer()
	opts := r.opts
	opts.Trace = tracer
	d, root, err := r.run(opts, rec, run)
	if err != nil {
		return d, err
	}
	var crit exec.RankMetrics
	var busy, queued time.Duration
	var hits, misses, peak, mostTiles int
	for _, m := range tracer.PerRank() {
		if m.Span > crit.Span {
			crit = m
		}
		busy += m.Unpack + m.Compute + m.Send
		queued += m.Queued
		hits += m.PoolHits
		misses += m.PoolMisses
		peak = max(peak, m.PendingPeak)
		if m.Tiles > mostTiles {
			mostTiles, *largest = m.Tiles, m.Rank
		}
	}
	add := func(name string, v float64) { phases[name] = append(phases[name], v) }
	rank := rec.child("exec.rank", root, run, 0, crit.Span)
	var at time.Duration
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"exec.wait_s", crit.Wait}, {"exec.unpack_s", crit.Unpack}, {"exec.compute_s", crit.Compute},
		{"exec.send_s", crit.Send}, {"exec.drain_s", crit.Drain},
	} {
		rec.child(ph.name, rank, run, at, ph.d)
		at += ph.d
		add(ph.name, ph.d.Seconds())
	}
	add("exec.span_s", crit.Span.Seconds())
	add("exec.unattributed_s", (d - crit.Span).Seconds())
	add("exec.busy_cpu_s", busy.Seconds())
	add("exec.queued_s", queued.Seconds())
	if hits+misses > 0 {
		add("exec.pool_hit_ratio", float64(hits)/float64(hits+misses))
	}
	add("exec.pending_peak", float64(peak))
	add("exec.workers", float64(crit.Workers))
	return d, nil
}

// probes measures the layers under the executor from outside, on this
// workload's own program and fabric.
func (r *runner) probes(out samples, largest int) error {
	p := r.c.prog
	ranks := p.Dist.NumProcs()

	if r.spec.modes {
		for _, mode := range []struct {
			metric string
			set    func(*exec.RunOptions)
		}{
			{"exec.blocking_run_s", func(o *exec.RunOptions) { o.Overlap = false }},
			{"exec.dynamic_run_s", func(o *exec.RunOptions) { o.Dynamic = true }},
		} {
			opts := r.opts
			mode.set(&opts)
			// Blocking sends count on another Stats field, so these runs are
			// checked by value only.
			var lat []float64
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				g, _, err := p.RunParallelOpts(opts)
				lat = append(lat, time.Since(t0).Seconds())
				if err != nil {
					return fmt.Errorf("%s: %w", mode.metric, err)
				}
				if sum := checksum(p, g); sum != r.refSum {
					return fmt.Errorf("%s: result checksum %s, sequential reference %s", mode.metric, sum, r.refSum)
				}
			}
			out.set(mode.metric, median(lat), len(lat))
		}
	}

	for _, sw := range []struct {
		metric  string
		workers int
	}{{"exec.sweep_mpts_per_s_w1", 1}, {"exec.sweep_mpts_per_s_wmax", runtime.NumCPU()}} {
		points, seconds, err := p.ComputeSweep(largest, sw.workers, 5)
		if err != nil {
			return fmt.Errorf("%s: %w", sw.metric, err)
		}
		if seconds > 0 {
			out.set(sw.metric, float64(points)/seconds/1e6, 5)
		}
	}

	// World lifecycle of this workload's fabric at its rank count.
	const rounds = 5
	var created, reset []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		w, err := newWorld(r.spec.tcp, ranks)
		if err != nil {
			return fmt.Errorf("mpi.world_new_s: %w", err)
		}
		created = append(created, time.Since(t0).Seconds())
		t0 = time.Now()
		w.Reset(mpi.Options{})
		reset = append(reset, time.Since(t0).Seconds())
		w.Close()
	}
	out.set("mpi.world_new_s", median(created), rounds)
	out.set("mpi.world_reset_s", median(reset), rounds)

	trips := 2000
	if r.small {
		trips = 100
	}
	alpha, beta, err := pingPong(r.spec.tcp, trips)
	if err != nil {
		return err
	}
	fabric := "chan"
	if r.spec.tcp {
		fabric = "tcp"
	}
	out.set("mpi."+fabric+"_alpha_us", alpha*1e6, 4*trips)
	out.set("mpi."+fabric+"_beta_ns", beta*1e9, 4*trips)

	if r.world != nil {
		before, _ := r.world.WireStats()
		if _, _, err := r.run(r.opts, nil, 0); err != nil {
			return err
		}
		after, _ := r.world.WireStats()
		frames, bytes := after.FramesSent-before.FramesSent, after.BytesSent-before.BytesSent
		out.set("mpi.wire_frames", float64(frames), 1)
		out.set("mpi.wire_bytes", float64(bytes), 1)
		if batches := after.Batches - before.Batches; batches > 0 {
			out.set("mpi.wire_frames_per_write", float64(frames)/float64(batches), 1)
		}
		out.set("mpi.wire_bytes_per_value", float64(bytes)/float64(r.stats.Values), 1)
		out.set("mpi.wire_resent", float64(after.Resent-before.Resent), 1)
	}
	return nil
}

// newWorld builds a world of the workload's fabric.
func newWorld(tcp bool, ranks int) (*mpi.World, error) {
	if tcp {
		return mpi.NewTCPWorld(ranks, mpi.Options{})
	}
	return mpi.NewWorldOpts(ranks, mpi.Options{}), nil
}

// pingPong bounces payloads of 8, 64, 512 and 4096 values between two
// ranks through World.RunE / Comm.Send / Comm.Recv and least-squares
// fits one-way time = alpha + beta·values.
func pingPong(tcp bool, trips int) (alpha, beta float64, err error) {
	w, err := newWorld(tcp, 2)
	if err != nil {
		return 0, 0, fmt.Errorf("ping-pong: %w", err)
	}
	defer w.Close()
	const tag = 7
	sizes := []int{8, 64, 512, 4096}
	oneWay := make([]float64, len(sizes))
	for i, size := range sizes {
		buf := make([]float64, size)
		err = w.RunE(func(c *mpi.Comm) {
			if c.Rank() == 1 {
				for k := 0; k <= trips; k++ {
					c.Send(0, tag, c.Recv(0, tag))
				}
				return
			}
			c.Send(1, tag, buf) // untimed first trip dials the link
			c.Recv(1, tag)
			t0 := time.Now()
			for k := 0; k < trips; k++ {
				c.Send(1, tag, buf)
				c.Recv(1, tag)
			}
			oneWay[i] = time.Since(t0).Seconds() / float64(2*trips)
		})
		if err != nil {
			return 0, 0, fmt.Errorf("ping-pong at %d values: %w", size, err)
		}
	}
	var sx, sy, sxx, sxy float64
	for i, size := range sizes {
		x, y := float64(size), oneWay[i]
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	k := float64(len(sizes))
	beta = (k*sxy - sx*sy) / (k*sxx - sx*sx)
	return (sy - beta*sx) / k, beta, nil
}
