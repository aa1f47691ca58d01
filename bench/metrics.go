package main

// metricDef is one declared metric. BENCHMARK.json lists the same names,
// units and directions; bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd are the metrics a user of the planner or the daemon would see.
// Every workload reports every one. The timing bounds are a quarter: on
// the shared 2-core machine the baseline was taken on, ten runs of the
// same binary spread by 3-8 % in a quiet hour and 15-20 % in a noisy one
// (README.md, "How steady it is"); a smaller effect is resolved with
// paired alternating runs, not against a recorded median.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"shape_ms_geomean", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"best_pred_ms_geomean", "model_ms", "lower", 1e-9},
	{"speedup_vs_allreduce_geomean", "ratio", "higher", 1e-9},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repo's packages. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricDef{
	{"placement.matrices", "count", "lower", 0},
	{"placement.iterate_us_per_matrix", "us", "lower", 0},
	{"hierarchy.build_us_per_matrix", "us", "lower", 0},
	{"hierarchy.signature_us", "us", "lower", 0},
	{"hierarchy.distinct_signatures", "count", "lower", 0},
	{"synth.ms_per_run", "ms", "lower", 0},
	{"synth.programs_per_run", "count", "lower", 0},
	{"synth.alloc_kb_per_run", "KB", "lower", 0},
	{"lower.us_per_program", "us", "lower", 0},
	{"lower.steps_per_program", "count", "lower", 0},
	{"lower.allocs_per_program", "count", "lower", 0},
	{"cost.scorer_us_per_program", "us", "lower", 0},
	{"cost.scorer_allocs_per_program", "count", "lower", 0},
	{"cost.model_us_per_program", "us", "lower", 0},
	{"plan.placements", "count", "lower", 0},
	{"plan.synth_runs", "count", "lower", 0},
	{"plan.memo_hits", "count", "higher", 0},
	{"plan.candidates", "count", "lower", 0},
	{"plan.pruned_placements", "count", "higher", 0},
	{"plan.pruned_programs", "count", "higher", 0},
	{"plan.bound_tightenings", "count", "higher", 0},
	{"plan.scored_share", "ratio", "lower", 0},
	{"plan.op_over_replay", "ratio", "lower", 0},
	{"plan.par_speedup", "ratio", "higher", 0},
	{"netsim.us_per_program", "us", "lower", 0},
	{"netsim.events_per_program", "count", "lower", 0},
	{"netsim.measured_candidates", "count", "lower", 0},
	{"netsim.rank_inversions", "count", "lower", 0},
	{"netsim.top10_hit_share", "ratio", "higher", 0},
	{"p2.wrap_ms", "ms", "lower", 0},
	{"p2.strategies_per_op", "count", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.plan_share", "ratio", "higher", 0},
	{"serve.resp_bytes", "B", "lower", 0},
	{"serve.cache_hit_share", "ratio", "higher", 0},
	{"serve.cache_entries", "count", "lower", 0},
	{"serve.statz.requests", "count", "higher", 0},
	{"serve.statz.cache_hits", "count", "higher", 0},
	{"serve.statz.cache_misses", "count", "lower", 0},
	{"serve.statz.coalesced", "count", "lower", 0},
	{"serve.statz.shed", "count", "lower", 0},
	{"serve.statz.partials", "count", "lower", 0},
	{"serve.statz.panics", "count", "lower", 0},
	{"serve.statz_p50_ms", "ms", "lower", 0},
	{"load.generate_ms", "ms", "lower", 0},
	{"load.client_us_per_request", "us", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.heap_inuse_peak_mb", "MB", "lower", 0},
	{"proc.gc_cpu_share", "ratio", "lower", 0},
	{"proc.mallocs_k_per_op", "1e3", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}
