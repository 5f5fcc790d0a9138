package main

import (
	"math"
	"sort"

	"wearmem/internal/harness"
	"wearmem/internal/stats"
)

// metric is one declared benchmark metric. BENCHMARK.json carries the same
// tables; bench_test.go keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median the metric may worsen by; end-to-end only
}

// endToEnd are the metrics every workload reports with tracing off. The
// three times (setup_s, wall_s, ops_per_s) are at reference host speed
// (probe.go). Each bound is the contract's cap or three times the widest
// cross-seed spread measured on the 2-core reference host, whichever is
// smaller (README "Repeatability"): the issue's 10 % is below what that host
// repeats the parent commit to.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"sim_cycles", "cycles", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// ledgerOnly are end-to-end metrics result.json and -compare carry beyond
// the five above: raw_wall_s is wall_s as the host's clock measured it, the
// tails are not defined on every workload (they need requests) and
// fail_ratio is legitimately zero, so BENCHMARK.json, which wants every
// end-to-end metric on every workload and never zero, lists the tails per
// layer and carries failures as attempted/failed.
var ledgerOnly = []metric{
	{"raw_wall_s", "s", "lower", 0.25},
	{"sim_p99_cycles", "cycles", "lower", 0.05},
	{"sim_p999_cycles", "cycles", "lower", 0.05},
	{"fail_ratio", "ratio", "lower", 0},
}

// ledgerMetrics is every end-to-end metric result.json carries.
func ledgerMetrics() []metric {
	return append(append([]metric{}, endToEnd...), ledgerOnly...)
}

// layerMetrics are the per-workload per-layer metrics of the traced pass
// (the "T" rows of README's table); a workload that does not exercise a
// metric's mechanism reports 0 for it.
var layerMetrics = []metric{
	{"harness.runs", "count", "lower", 0},
	{"harness.execute_share", "ratio", "higher", 0},
	{"harness.overhead_s", "s", "lower", 0},
	{"harness.parallel_speedup", "ratio", "higher", 0},
	{"heap.host_alloc_mb", "MB", "lower", 0},
	{"host.gc_count", "count", "lower", 0},
	{"host.gc_cpu_fraction", "ratio", "lower", 0},
	{"core.gc.wall_share", "ratio", "lower", 0},
	{"core.trace.wall_share", "ratio", "lower", 0},
	{"core.sweep.wall_share", "ratio", "lower", 0},
	{"core.trace.ns_per_mark", "ns", "lower", 0},
	{"core.sweep.ns_per_line", "ns", "lower", 0},
	{"core.collections", "count", "lower", 0},
	{"core.full_collections", "count", "lower", 0},
	{"vm.mutator.wall_share", "ratio", "higher", 0},
	{"vm.mutator.ns_per_event", "ns", "lower", 0},
	{"pcm.write.ns", "ns", "lower", 0},
	{"pcm.failure_rate.ns", "ns", "lower", 0},
	{"pcm.buffer_len.ns", "ns", "lower", 0},
	{"pcm.drain.ns", "ns", "lower", 0},
	{"pcm.writes", "count", "lower", 0},
	{"pcm.failed_lines", "count", "lower", 0},
	{"pcm.stall_events", "count", "lower", 0},
	{"kernel.upcalls", "count", "lower", 0},
	{"kernel.interrupts", "count", "lower", 0},
	{"kernel.borrows", "count", "lower", 0},
	{"kv.host_ns_per_op", "ns", "lower", 0},
	{"kv.gc_affected_ops", "count", "lower", 0},
	{"kv.stall_affected_ops", "count", "lower", 0},
	{"kv.gc_share", "ratio", "lower", 0},
	{"kv.stall_share", "ratio", "lower", 0},
	{"kv.sim_p99_cycles", "cycles", "lower", 0},
	{"kv.sim_p999_cycles", "cycles", "lower", 0},
	{"chaos.campaign.ms_p50", "ms", "lower", 0},
	{"chaos.campaign.ms_max", "ms", "lower", 0},
	{"chaos.crash_campaign.ms_p50", "ms", "lower", 0},
	{"verify.verifications", "count", "higher", 0},
	{"sim.share.mutator", "ratio", "higher", 0},
	{"sim.share.alloc", "ratio", "lower", 0},
	{"sim.share.gc", "ratio", "lower", 0},
	{"sim.share.hw", "ratio", "lower", 0},
	{"sim.share.os", "ratio", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}

// perLayer returns every per-layer metric in declaration order: one wall
// time per harness experiment, the per-workload layer metrics, then the
// ladder rungs.
func perLayer() []metric {
	var out []metric
	for _, e := range harness.All() {
		out = append(out, metric{"harness.exp." + e.ID + ".wall_s", "s", "lower", 0})
	}
	out = append(out, layerMetrics...)
	for _, r := range ladder {
		out = append(out, metric{"ladder." + r.name + ".ns", "ns/op", "lower", 0})
		if r.cycles {
			out = append(out, metric{"ladder." + r.name + ".cycles", "cycles/op", "lower", 0})
		}
	}
	return out
}

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is an end-to-end metric in result.json: the reported median plus
// every per-rep sample behind it.
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread this
// program prints is the one the acceptance rule is written in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return stats.Median(s), stats.Median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := stats.Median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
