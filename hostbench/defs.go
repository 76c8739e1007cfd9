package main

// Metric declarations. BENCHMARK.json mirrors these tables (the self-tests
// pin the two together), so a metric is added or renamed here first.

// e2eMetric is an end-to-end metric: what a user running the simulator
// sees. Bound is the share of the parent's median by which it may worsen.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// layerMetric is a per-layer metric from the traced run. Moves names the
// end-to-end metric it should move and Workload the workload where it
// moves most; on the workloads that bypass the layer it should not move.
type layerMetric struct {
	Name     string
	Unit     string
	Better   string
	Moves    string
	Workload string
}

// Bounds follow the run-to-run spread (quartile distance over median) of
// ten seeds on a shared 2-CPU VM, in README.md: host time and CPU move by
// about a tenth between runs minutes apart, so they carry the largest
// bound; allocation counts, memory and the virtual-time model metrics
// move by a few percent at most.
var endToEnd = []e2eMetric{
	{"sim_s_per_s", "s/s", "higher", 0.25},
	{"cpu_s_per_sim_s", "s/s", "lower", 0.25},
	{"allocs_per_sim_s", "1/s", "lower", 0.03},
	{"alloc_mb_per_sim_s", "MB/s", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
	{"session_ms_p50", "ms", "lower", 0.25},
	{"session_ms_tail", "ms", "lower", 0.25},
	{"model_fps", "fps", "higher", 0.05},
	{"model_access_ms_mean", "ms", "lower", 0.1},
}

// modules are the host-CPU buckets of the traced run: the innermost
// repro/internal/<module> frame of each sample, runtime.sched and
// runtime.gc for stacks with no repo frame, and other for the remaining
// internal packages and the benchmark's own harness code. Each names the
// end-to-end metric its CPU share should move and where.
var modules = []struct{ Name, Moves, Workload string }{
	{"sim", "sim_s_per_s", "apps"},
	{"runtime.sched", "cpu_s_per_sim_s", "apps"},
	{"runtime.gc", "alloc_mb_per_sim_s", "fetch"},
	{"svm", "sim_s_per_s", "fetch"},
	{"hostsim", "sim_s_per_s", "fetch"},
	{"fence", "sim_s_per_s", "fetch"},
	{"virtio", "sim_s_per_s", "apps"},
	{"device", "sim_s_per_s", "apps"},
	{"prefetch", "sim_s_per_s", "apps"},
	{"hypergraph", "sim_s_per_s", "apps"},
	{"workload", "sim_s_per_s", "apps"},
	{"guest", "sim_s_per_s", "apps"},
	{"emulator", "setup_s", "apps"},
	{"metrics", "sim_s_per_s", "apps"},
	{"obs", "sim_s_per_s", "farm"},
	{"prof", "alloc_mb_per_sim_s", "fetch"},
	{"fleetobs", "sim_s_per_s", "farm"},
	{"tsmon", "sim_s_per_s", "farm"},
	{"other", "sim_s_per_s", "apps"},
}

func perLayer() []layerMetric {
	var out []layerMetric
	for _, m := range modules {
		out = append(out, layerMetric{m.Name + ".cpu_ms_per_sim_s", "ms/s", "lower", m.Moves, m.Workload})
	}
	return append(out, fixedLayers...)
}

var fixedLayers = []layerMetric{
	// Tracing cost: traced vs untraced sim_s_per_s inside one run.
	{"trace.untraced_sim_s_per_s", "s/s", "higher", "sim_s_per_s", "apps"},
	{"trace.traced_sim_s_per_s", "s/s", "higher", "sim_s_per_s", "apps"},
	{"trace.overhead_frac", "frac", "lower", "sim_s_per_s", "apps"},

	// Timed public calls, median per call.
	{"sim.new_env_us", "us", "lower", "setup_s", "apps"},
	{"hostsim.machine_us", "us", "lower", "setup_s", "apps"},
	{"emulator.new_us", "us", "lower", "setup_s", "apps"},
	{"workload.start_us", "us", "lower", "setup_s", "apps"},
	{"sim.run_ms", "ms", "lower", "sim_s_per_s", "apps"},
	{"workload.wait_us", "us", "lower", "session_ms_p50", "fetch"},
	{"sim.close_us", "us", "lower", "session_ms_p50", "apps"},

	// Sim core.
	{"sim.events_per_sim_s", "1/s", "lower", "sim_s_per_s", "apps"},
	{"sim.host_ns_per_event", "ns", "lower", "sim_s_per_s", "apps"},

	// Shard scheduler (farm only).
	{"sim.windows", "count", "lower", "sim_s_per_s", "farm"},
	{"sim.events_per_window", "count", "higher", "sim_s_per_s", "farm"},
	{"sim.window_us_p50", "us", "lower", "sim_s_per_s", "farm"},
	{"sim.window_us_p99", "us", "lower", "sim_s_per_s", "farm"},
	{"sim.barrier_stall_frac", "frac", "lower", "cpu_s_per_sim_s", "farm"},
	{"sim.coord_us_per_window", "us", "lower", "sim_s_per_s", "farm"},

	// Coherence work and useful/attempt ratios (exact under host-only
	// changes).
	{"svm.reads", "count", "lower", "sim_s_per_s", "fetch"},
	{"svm.writes", "count", "lower", "sim_s_per_s", "apps"},
	{"svm.demand_fetches", "count", "lower", "sim_s_per_s", "fetch"},
	{"svm.prefetch_hit_ratio", "frac", "higher", "sim_s_per_s", "apps"},
	{"svm.waste_ratio", "frac", "lower", "sim_s_per_s", "apps"},
	{"svm.fetch_join_ratio", "frac", "higher", "sim_s_per_s", "fetch"},
	{"svm.pushes_per_batch", "count", "higher", "sim_s_per_s", "apps"},

	// Transport and devices.
	{"virtio.notifs_per_access", "count", "lower", "sim_s_per_s", "apps"},
	{"device.fence_timeouts", "count", "lower", "sim_s_per_s", "apps"},

	// Go runtime.
	{"runtime.allocs_per_event", "count", "lower", "allocs_per_sim_s", "fetch"},
	{"runtime.gc_cycles", "count", "lower", "alloc_mb_per_sim_s", "fetch"},
}

// workloads are the benchmark's named inputs, in BENCHMARK.json order.
var workloads = []struct{ Name, Why string }{
	{"apps", "Fig. 10 sweep, every preset x category: most process switches; prefetch push-ahead; bypasses prof, chunked fetch, shards"},
	{"fetch", "Fig. 16 write-invalidate probe: chunked demand fetch over hostsim links and fences, profiler on, heaviest allocator"},
	{"farm", "4-guest vSoC farm, 2 shards, shared PCIe budget, fleetobs+tsmon: the only windows, barriers and observers"},
}
