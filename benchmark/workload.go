package main

import (
	"fmt"
	"runtime"
	"time"
)

// config is what one invocation hands every workload.
type config struct {
	seed   int64
	budget time.Duration // wall budget of the timed section
	setups int           // least number of set-ups; setup_s is the median of those run
	small  bool          // smoke-test scale: smaller spaces, fewer probe rounds
	// golden maps "<workload>/<item>" to the committed expected output
	// for this GOARCH; nil skips the golden comparison (the reference
	// comparison always runs).
	golden map[string]string
	// record, when non-nil, collects the outputs golden would be checked
	// against (-write-golden).
	record map[string]string
}

// checkGolden compares got with the committed expectation for key. The
// smoke test's small spaces have expectations of their own.
func (c config) checkGolden(key, got string) error {
	if c.small {
		key = "small/" + key
	}
	if c.record != nil {
		c.record[key] = got
	}
	if c.golden == nil {
		return nil
	}
	if want, ok := c.golden[key]; !ok {
		return fmt.Errorf("golden: no committed expectation for %s (got %q)", key, got)
	} else if want != got {
		return fmt.Errorf("golden: %s is %q, committed expectation is %q", key, got, want)
	}
	return nil
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// block, tailQ and classes define how a timed section becomes the
	// three timing metrics (see summarize). block is the number of
	// operations per block (0 = the whole section is one block). tailQ is
	// the quantile of op_tail_ms, the highest that leaves about ten
	// samples beyond it over the workload's operation count, fixed here so
	// that it never depends on how fast a particular build ran. classes
	// are the shares of the operation classes in the typical latency (nil =
	// every operation is of one class).
	block   int
	tailQ   float64
	classes []float64
	setup   func(cfg config, rec *recorder) (instance, error)
}

// instance is a workload after set-up.
type instance interface {
	// measure is the untraced timed section: closed-loop operations for
	// budget, every output checked.
	measure(budget time.Duration) timed
	// layers is the traced pass: it spends about budget on traced
	// operations and layer probes and returns the per-layer metrics it
	// can speak for, plus the operations it ran.
	layers(budget time.Duration, rec *recorder) (samples, timed)
	close()
}

var workloads = []workload{
	{
		name: "sor_fine", tailQ: 0.90, block: 25,
		why:   "66 ranks, 726 tiles of ~22 points, 1753 messages of ~8 values on a fresh channel world per run: per-message and per-goroutine overhead dominate, the kernel does almost nothing",
		setup: sorFine.setup,
	},
	{
		name: "sor_fine_tcp", tailQ: 0.90, block: 25,
		why:   "the identical compiled plan over a pooled loopback-TCP world that is Reset per run: same executor and traffic, so the difference to sor_fine is the wire layer (framing, coalescing, sockets)",
		setup: sorFineTCP.setup,
	},
	{
		name: "jacobi_coarse", tailQ: 0.75,
		why:   "2 ranks (= nproc), 10 tiles of ~41600 points, 5 messages: mpi does next to nothing and all time is in exec's per-tile phases, so a wire change must show nothing here",
		setup: jacobiCoarse.setup,
	},
	{
		name: "compile_suite", tailQ: 0.75,
		why:   "no execution: the nine shipped app x tiling-family configurations plus eight DSL sources drawn from the seed go parse to generated C, so compiler work is gated apart from runtime work",
		setup: setupSuite,
	},
	{
		name: "serve_mix", tailQ: 0.99, block: serveDeck, classes: serveShares(),
		why:   "service: 24 specs over a 16-entry plan cache, Zipf(1.1) popularity, 40/30/10/20 analyze/certify/codegen/run from a seed-shuffled deck, 1 closed-loop client: compiler and executor behind a cache",
		setup: setupServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one completed operation of a timed section.
type op struct {
	lat    float64 // seconds
	end    float64 // completion, in seconds since the section began
	class  int     // serve_mix: the endpoint; 0 elsewhere
	failed bool
}

// timed is the outcome of a closed-loop section.
type timed struct {
	ops      []op // in completion order
	failed   int
	failures []string // first few failure messages
}

// add records one operation. A failed one counts as slower than any
// limit: its latency is recorded as the watchdog's.
func (t *timed) add(d, end time.Duration, class int, err error, budget time.Duration) {
	if err != nil {
		t.fail(err)
		d = watchdogLimit(budget)
	}
	t.ops = append(t.ops, op{lat: d.Seconds(), end: end.Seconds(), class: class, failed: err != nil})
}

func (t *timed) fail(err error) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, err.Error())
	}
}

// closedLoop calls op back to back from one caller until budget has
// passed (at least once). op receives the 0-based operation index and
// returns the latency of the operation proper, read from the monotonic
// clock, so that checking an output is inside the window but outside
// the latency.
func closedLoop(budget time.Duration, op func(i int) (time.Duration, error)) timed {
	var t timed
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		d, err := op(i)
		t.add(d, time.Since(start), 0, err, budget)
	}
	return t
}

// summarize reduces a timed section to its three timing metrics. The
// section is cut, in completion order, into consecutive blocks of w.block
// operations (one block if w.block is 0 or the section has fewer). Each
// block gives its typical latency (the median; with classes, the
// share-weighted mean of the classes' medians), its tail latency (the
// tailQ-quantile) and its rate (correct operations over the time the
// block took, output checks included), and each metric is the median
// over the blocks: a stretch in which the host was slow moves a metric
// only if it covers half the section.
//
// The typical latency of a mix of classes is not the median over all
// operations, because that one sits on a cliff: on serve_mix 40 % of the
// requests take 0.05 ms and the rest ten times that, so the median of all
// moved by 30 % when a few per cent of the requests changed sides.
func (w workload) summarize(t timed) (typicalMs, tailMs, perSecond float64) {
	n := len(t.ops)
	block := w.block
	if block <= 0 || n < block {
		block = n
	}
	classes := w.classes
	if classes == nil {
		classes = []float64{1}
	}
	var typical, tail, rate []float64
	began := 0.0
	for i := 0; i+block <= n; i += block {
		ms := make([]float64, 0, block)
		byClass := make([][]float64, len(classes))
		correct := 0
		for _, o := range t.ops[i : i+block] {
			ms = append(ms, o.lat*1e3)
			byClass[o.class] = append(byClass[o.class], o.lat*1e3)
			if !o.failed {
				correct++
			}
		}
		sum, share := 0.0, 0.0
		for c, xs := range byClass {
			if len(xs) > 0 { // a section shorter than a block may miss a class
				sum += classes[c] * median(xs)
				share += classes[c]
			}
		}
		typical = append(typical, sum/share)
		tail = append(tail, quantile(ms, w.tailQ))
		end := t.ops[i+block-1].end
		rate = append(rate, float64(correct)/(end-began))
		began = end
	}
	return median(typical), median(tail), median(rate)
}

// timeOp adapts an operation whose whole call is the latency.
func timeOp(op func() error) (time.Duration, error) {
	t0 := time.Now()
	err := op()
	return time.Since(t0), err
}

// result is one workload's outcome in one pass.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string
	metrics   samples
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// watchdog bounds a timed section: a section still running after three
// times its budget (at least half a minute, so that one slow operation
// in flight at the deadline is not a hang) is reported as failed
// instead of hanging the command. The abandoned goroutine cannot be
// stopped; the caller exits the process after reporting.
func watchdog(budget time.Duration, section func() timed) (timed, bool) {
	done := make(chan timed, 1)
	go func() { done <- section() }()
	limit := time.NewTimer(watchdogLimit(budget))
	defer limit.Stop()
	select {
	case t := <-done:
		return t, true
	case <-limit.C:
		var t timed
		t.fail(fmt.Errorf("watchdog: timed section still running after %v", watchdogLimit(budget)))
		return t, false
	}
}

func watchdogLimit(budget time.Duration) time.Duration { return max(3*budget, 30*time.Second) }

// runWorkload sets w up cfg.setups times — and, while set-ups are cheap,
// again until they have taken two seconds in all or 25 have run, so
// that a set-up of a tenth of a second is not judged by three samples —
// then runs either the untraced timed section (end-to-end metrics) or the
// traced pass (per-layer metrics). hung reports that the watchdog fired
// and a goroutine of the workload is still running.
func runWorkload(w workload, cfg config, rec *recorder) (res result, hung bool) {
	res = result{workload: w.name, traced: rec != nil, metrics: samples{}}
	var (
		inst   instance
		setups []float64
		spent  float64
	)
	for i := 0; i < cfg.setups || (cfg.setups > 1 && spent < 2 && i < 25); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg, rec); err != nil {
			res.attempted, res.failed = 1, 1
			res.failures = []string{"setup: " + err.Error()}
			return res, false
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer func() {
		if !hung {
			inst.close()
		}
	}()
	runtime.GC()

	if rec != nil {
		var layer samples
		t, ok := watchdog(cfg.budget, func() (t timed) { layer, t = inst.layers(cfg.budget, rec); return t })
		res.attempted, res.failed, res.failures = max(len(t.ops), 1), t.failed, t.failures
		if !ok {
			return res, true
		}
		for _, m := range perLayer {
			res.metrics[m.Name] = layer[m.Name] // zero sample where the workload has nothing to say
		}
		return res, false
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t, ok := watchdog(cfg.budget, func() timed { return inst.measure(cfg.budget) })
	runtime.ReadMemStats(&after)
	res.attempted, res.failed, res.failures = max(len(t.ops), 1), t.failed, t.failures
	if !ok {
		return res, true
	}
	n := len(t.ops)
	typical, tail, rate := w.summarize(t)
	res.metrics.set("setup_s", median(setups), len(setups))
	res.metrics.set("op_p50_ms", typical, n)
	res.metrics.set("op_tail_ms", tail, n)
	res.metrics.set("ops_per_s", rate, n)
	res.metrics.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(n), n)
	return res, false
}
