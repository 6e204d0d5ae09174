package main

// The metric catalogue. BENCHMARK.json at the repository root lists the same
// names and units (TestCatalogueMatchesBenchmarkJSON keeps them in step); the
// tags here say which end-to-end metric, on which workload, a change to each
// layer metric should move — the map a later performance change cites
// before it claims anything.

// endToEnd is one user-visible metric, reported by every untraced run.
// The times are on the reference clock (refclock.go): CPU or wall time
// rescaled by the reference kernel's speed in the same run, so that a
// shared machine's swings in speed cancel out. The record line's "extra"
// carries the raw figures (setup_wall_s, sweep_cpu_s, sweep_wall_s,
// sim_cycles_per_cpu_s, sim_cycles_per_s, run_p50_ms, run_p99_ms,
// capacity_rps).
type endToEnd struct {
	name, unit, better string
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower"},
	{"sweep_ref_s", "s", "lower"},
	{"sim_cycles_per_ref_s", "cycles/s", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

// layerMetric is one per-layer metric of the traced run, tagged with the
// end-to-end metric (moves) and workload (on) it should move.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

var layerMetrics = []layerMetric{
	// experiments: the sweep planner and worker pool, timed around each
	// point's OnPoint delivery.
	{"experiments.pool_busy_frac", "ratio", "higher", "sweep_wall_s", "sweep"},
	{"experiments.tail_s", "s", "lower", "sweep_wall_s", "sweep"},
	{"experiments.point_p50_ms", "ms", "lower", "sweep_wall_s", "sweep"},
	{"experiments.point_max_ms", "ms", "lower", "sweep_wall_s", "sweep"},
	{"experiments.harness_s", "s", "lower", "sweep_wall_s", "sweep"},

	// core: core.New and Simulator.Run, timed through a Resolver (sweeps) or
	// a replay of the run's own configs (service).
	{"core.build_s", "s", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"core.run_s", "s", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"core.ns_per_cycle", "ns", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"core.ns_per_flit_hop", "ns", "lower", "sim_cycles_per_ref_s", "sweep"},

	// Exact work counts: a speed-only change leaves them identical.
	{"engine.sim_cycles", "cycles", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"switches.flit_hops", "flits", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"routing.decodes", "count", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"switches.replications", "count", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"centralbuf.buffer_flits", "flits", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"centralbuf.bypass_flits", "flits", "higher", "sim_cycles_per_ref_s", "sweep"},
	{"inputbuf.hol_blocked_cycles", "cycles", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"nic.flits_injected", "flits", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"nic.overhead_cycles", "cycles", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"engine.invariant_violations", "count", "lower", "sim_cycles_per_ref_s", "sweep"},

	// CPU self-time share by package, from a runtime/pprof profile.
	{"cpu.engine_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.centralbuf_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.inputbuf_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.nic_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.routing_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.collective_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.core_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.obs_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},
	{"cpu.service_frac", "ratio", "lower", "run_p50_ms", "service-cold"},
	{"cpu.cluster_frac", "ratio", "lower", "sweep_ref_s", "cluster-sweep"},
	{"cpu.stdlib_io_frac", "ratio", "lower", "run_p50_ms", "service-warm"},
	{"cpu.runtime_frac", "ratio", "lower", "run_p50_ms", "service-cold"},
	{"cpu.other_frac", "ratio", "lower", "sim_cycles_per_ref_s", "sweep"},

	// service, from job views (X-Mdwd-Job, then GET /v1/jobs).
	{"service.queue_wait_p50_ms", "ms", "lower", "run_p99_ms", "service-cold"},
	{"service.queue_wait_p99_ms", "ms", "lower", "capacity_rps", "service-cold"},
	{"service.job_p50_ms", "ms", "lower", "run_p50_ms", "service-cold"},
	{"service.front_door_p50_ms", "ms", "lower", "run_p50_ms", "service-warm"},

	// service, from /metrics deltas over the measured phase.
	{"service.cache_hit_frac", "ratio", "higher", "run_p50_ms", "service-warm"},
	{"service.busy_frac", "ratio", "lower", "capacity_rps", "service-cold"},
	{"service.refused", "count", "lower", "run_p99_ms", "service-cold"},

	// service, replaying the run's own inputs through the public functions
	// on a scratch directory.
	{"service.journal_append_us", "us", "lower", "run_p50_ms", "service-cold"},
	{"service.cache_put_us", "us", "lower", "run_p50_ms", "service-cold"},
	{"service.encode_us", "us", "lower", "run_p50_ms", "service-cold"},
	{"service.cache_get_mem_us", "us", "lower", "run_p50_ms", "service-warm"},
	{"service.cache_get_disk_us", "us", "lower", "run_p50_ms", "service-warm"},
	{"service.hash_us", "us", "lower", "run_p50_ms", "service-warm"},
	{"service.body_sha_us", "us", "lower", "run_p50_ms", "service-warm"},

	// cluster, from a timing RoundTripper in cluster.Config.Transport and
	// timing wrappers around each worker's Handler().
	{"cluster.dispatch_rtt_p50_ms", "ms", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.dispatch_rtt_p99_ms", "ms", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.worker_handler_p50_ms", "ms", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.attempts_per_shard", "ratio", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.busy_replies", "count", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.mirror_requests", "count", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.probe_requests", "count", "lower", "sweep_wall_s", "cluster-sweep"},
	{"cluster.worker_busy_frac", "ratio", "higher", "sweep_wall_s", "cluster-sweep"},
	{"cluster.local_points", "count", "lower", "sweep_wall_s", "cluster-sweep"},

	// bench: the harness itself; on "" means the workload of the run.
	{"bench.generator_late_p99_ms", "ms", "lower", "run_p99_ms", "service-cold"},
	{"bench.sweep_wall_s", "s", "lower", "the wall-clock view of sweep_ref_s", ""},
	{"bench.ref_kernel_s", "s", "lower", "nothing: the machine's speed, which the reference clock divides out", ""},
	{"bench.trace_overhead_frac", "ratio", "lower", "nothing end to end (the traced run's own cost)", ""},
	{"bench.error_frac", "ratio", "lower", "the result's failed/attempted", ""},
}
