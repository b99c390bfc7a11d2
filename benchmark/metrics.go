package main

import (
	"math"
	"sort"
)

// metric is one named measurement of the benchmark. The two lists below
// are the Go side of BENCHMARK.json (smoke_test.go asserts the two agree
// name for name); keeping them in code means the program needs no file
// from outside its own directory to know its bounds.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a per-layer count that must repeat bit for bit between
	// two runs of one build (the A/A check compares those with ==).
	Exact bool
}

// endToEnd is what a user of the system waits for or pays. Every
// workload reports every one of them, measured with tracing off.
//
// One operation is one exec.Program.RunParallelOpts call on the three
// run workloads, one pass over the whole suite on compile_suite and one
// HTTP request on serve_mix. op_tail_ms is the highest percentile the
// workload's sample count supports (see workload.tail).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer is the cost line of every layer, prefix = module name, taken
// in the traced pass by timing calls into the layer's public functions.
// A workload that does not exercise a layer reports 0 for its metrics
// (README.md has the table of which workload reports which).
var perLayer = []metric{
	// Compile pipeline, one span per call (compile_suite: summed over the
	// suite; run workloads: their own program, compiled in set-up).
	{Name: "compile.total_s", Unit: "s", Better: "lower"},
	{Name: "compile.analyze_s", Unit: "s", Better: "lower"},
	{Name: "frontend.parse_s", Unit: "s", Better: "lower"},
	{Name: "cone.rays_s", Unit: "s", Better: "lower"},
	{Name: "tiling.analyze_s", Unit: "s", Better: "lower"},
	{Name: "tiling.tiles", Unit: "count", Better: "lower", Exact: true},
	{Name: "tiling.points", Unit: "count", Better: "higher", Exact: true},
	{Name: "distrib.new_s", Unit: "s", Better: "lower"},
	{Name: "distrib.ranks", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.newprogram_s", Unit: "s", Better: "lower"},
	{Name: "verify.certify_s", Unit: "s", Better: "lower"},
	{Name: "verify.edges", Unit: "count", Better: "lower", Exact: true},
	{Name: "codegen.generate_s", Unit: "s", Better: "lower"},
	{Name: "codegen.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "simnet.simulate_s", Unit: "s", Better: "lower"},
	{Name: "schedule.steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "opt.search_s", Unit: "s", Better: "lower"},

	// Executor, from exec.Tracer's RankMetrics of the critical rank.
	{Name: "exec.span_s", Unit: "s", Better: "lower"},
	{Name: "exec.wait_s", Unit: "s", Better: "lower"},
	{Name: "exec.unpack_s", Unit: "s", Better: "lower"},
	{Name: "exec.compute_s", Unit: "s", Better: "lower"},
	{Name: "exec.send_s", Unit: "s", Better: "lower"},
	{Name: "exec.drain_s", Unit: "s", Better: "lower"},
	{Name: "exec.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "exec.busy_cpu_s", Unit: "s", Better: "lower"},
	{Name: "exec.queued_s", Unit: "s", Better: "lower"},
	{Name: "exec.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.pending_peak", Unit: "count", Better: "lower"},
	{Name: "exec.workers", Unit: "count", Better: "higher", Exact: true},
	{Name: "exec.sweep_mpts_per_s_w1", Unit: "Mpts/s", Better: "higher"},
	{Name: "exec.sweep_mpts_per_s_wmax", Unit: "Mpts/s", Better: "higher"},
	{Name: "exec.seq_s", Unit: "s", Better: "lower"},
	{Name: "exec.blocking_run_s", Unit: "s", Better: "lower"},
	{Name: "exec.dynamic_run_s", Unit: "s", Better: "lower"},
	{Name: "exec.run_p90_s", Unit: "s", Better: "lower"},
	{Name: "exec.mallocs_per_run", Unit: "count", Better: "lower"},
	{Name: "exec.trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	// Message layer: deterministic traffic counters of one run, the
	// fitted per-message/per-value cost of each fabric, world lifecycle,
	// and the TCP mesh's own counters.
	{Name: "mpi.msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.values", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.values_per_point", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mpi.overlapped_sends", Unit: "count", Better: "higher", Exact: true},
	{Name: "mpi.send_retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.chan_alpha_us", Unit: "us", Better: "lower"},
	{Name: "mpi.chan_beta_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.tcp_alpha_us", Unit: "us", Better: "lower"},
	{Name: "mpi.tcp_beta_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.world_new_s", Unit: "s", Better: "lower"},
	{Name: "mpi.world_reset_s", Unit: "s", Better: "lower"},
	{Name: "mpi.wire_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.wire_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.wire_frames_per_write", Unit: "ratio", Better: "higher"},
	{Name: "mpi.wire_bytes_per_value", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mpi.wire_resent", Unit: "count", Better: "lower"},

	// Service, from GET /metrics deltas and client-side clocks.
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.compiles", Unit: "count", Better: "lower"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.worlds_reused_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.analyze_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.certify_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.codegen_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_p50_ms", Unit: "ms", Better: "lower"},
}

// sample is one reported value and the number of observations behind it.
type sample struct {
	Value float64
	N     int
}

// samples maps a metric name to its value on one workload.
type samples map[string]sample

func (s samples) set(name string, v float64, n int) { s[name] = sample{Value: v, N: n} }

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
