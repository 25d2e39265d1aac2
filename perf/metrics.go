package main

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are printed by every untraced run, whatever the workload. Each
// is defined on all four workloads (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.24},
	{"instr_per_s", "1/s", "higher", 0.24},
	{"op_ms", "ms", "lower", 0.24},
	{"miss_ms", "ms", "lower", 0.24},
}

// perLayer are printed by every traced run. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"workload.next_ns_per_instr", "ns", "lower", 0},
	{"workload.nextwarm_ns_per_instr", "ns", "lower", 0},
	{"workload.self_frac", "frac", "lower", 0},
	{"cpu.self_frac", "frac", "lower", 0},
	{"branch.self_frac", "frac", "lower", 0},
	{"sim.warming_frac", "frac", "lower", 0},
	{"sim.detailed_frac", "frac", "lower", 0},
	{"core.self_frac", "frac", "lower", 0},
	{"core.dl1_accesses", "count", "higher", 0},
	{"core.ns_per_dl1_access", "ns", "lower", 0},
	{"core.repl_attempts", "count", "higher", 0},
	{"core.repl_success_frac", "frac", "higher", 0},
	{"core.errors_detected", "count", "higher", 0},
	{"core.recovered_frac", "frac", "higher", 0},
	{"ecc.self_frac", "frac", "lower", 0},
	{"cache.self_frac", "frac", "lower", 0},
	{"cache.l2_accesses", "count", "lower", 0},
	{"cache.mem_accesses", "count", "lower", 0},
	{"tier.self_frac", "frac", "lower", 0},
	{"tier.cross_accept_frac", "frac", "higher", 0},
	{"adapt.self_frac", "frac", "lower", 0},
	{"adapt.epochs", "count", "higher", 0},
	{"fault.self_frac", "frac", "lower", 0},
	{"sim.self_frac", "frac", "lower", 0},
	{"sim.host_ns_per_instr", "ns", "lower", 0},
	{"sim.windows", "count", "higher", 0},
	{"sim.ipc_err_pct", "%", "lower", 0},
	{"sim.run_ms_p50", "ms", "lower", 0},
	{"sim.run_ms_max", "ms", "lower", 0},
	{"runtime.self_frac", "frac", "lower", 0},
	{"runtime.gc_frac", "frac", "lower", 0},
	{"runtime.allocs_per_run", "count", "lower", 0},
	{"runtime.bytes_per_run", "B", "lower", 0},
	{"residual_frac", "frac", "lower", 0},
	{"runner.submitted", "count", "higher", 0},
	{"runner.simulated", "count", "lower", 0},
	{"runner.dedup_frac", "frac", "higher", 0},
	{"runner.busy_frac", "frac", "higher", 0},
	{"experiments.idle_s", "s", "lower", 0},
	{"serve.self_us_p50", "us", "lower", 0},
	{"serve.rejected_frac", "frac", "lower", 0},
	{"serve.mem_hits", "count", "higher", 0},
	{"serve.disk_hits", "count", "higher", 0},
	{"serve.misses", "count", "lower", 0},
	{"serve.mem_hit_p50_ms", "ms", "lower", 0},
	{"serve.mem_hit_p99_ms", "ms", "lower", 0},
	{"serve.disk_hit_p50_ms", "ms", "lower", 0},
	{"serve.miss_p50_ms", "ms", "lower", 0},
	{"serve.miss_p90_ms", "ms", "lower", 0},
	{"runner.mem_get_us_p50", "us", "lower", 0},
	{"runner.mem_hit_frac", "frac", "higher", 0},
	{"runner.coalesced", "count", "higher", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"store.get_us_p99", "us", "lower", 0},
	{"store.hit_frac", "frac", "higher", 0},
	{"store.put_ms_p50", "ms", "lower", 0},
	{"store.put_ms_p90", "ms", "lower", 0},
	{"loadgen.late_ms_p99", "ms", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}
