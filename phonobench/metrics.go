package main

// metricDef describes one reported metric. The end-to-end table is the
// one BENCHMARK.json lists, bound for bound (a test holds the two in
// step); per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of phonocmap sees, reported by every workload
// with tracing off. An operation is one scenario (search_dense), one
// job (serve_mixed) or one sweep cell (sweep_grid); latency is per
// scenario, per job and per grid respectively.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_s_tail", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "evals_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is reported by every workload with tracing on. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "network.build_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.compile_s_mean", Unit: "s", Better: "lower"},
	{Name: "scenario.compile_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.optimize_s_mean", Unit: "s", Better: "lower"},
	{Name: "scenario.analyze_s_mean", Unit: "s", Better: "lower"},
	{Name: "search.rpbla.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.sa.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.tabu.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.ga.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.memetic.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.snr_db_mean", Unit: "dB", Better: "higher"},
	{Name: "core.full_eval_us", Unit: "us", Better: "lower"},
	{Name: "core.swap_eval_us", Unit: "us", Better: "lower"},
	{Name: "core.batch_eval_us", Unit: "us", Better: "lower"},
	{Name: "core.incremental_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.batch_vs_swap", Unit: "ratio", Better: "lower"},
	{Name: "client.submit_s_p50", Unit: "s", Better: "lower"},
	{Name: "client.await_s_p50", Unit: "s", Better: "lower"},
	{Name: "client.fetch_s_p50", Unit: "s", Better: "lower"},
	{Name: "client.self_s_p50", Unit: "s", Better: "lower"},
	{Name: "service.queue_wait_s_p50", Unit: "s", Better: "lower"},
	{Name: "service.queue_wait_s_p99", Unit: "s", Better: "lower"},
	{Name: "service.run_s_p50", Unit: "s", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.duplicate_eval_ratio", Unit: "ratio", Better: "lower"},
	{Name: "service.sweep_cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.get_s_p50", Unit: "s", Better: "lower"},
	{Name: "store.put_s_p50", Unit: "s", Better: "lower"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sweep.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.cells_dispatched", Unit: "count", Better: "lower"},
	{Name: "fleet.cells_deduped", Unit: "count", Better: "higher"},
	{Name: "fleet.cells_retried", Unit: "count", Better: "lower"},
	{Name: "fleet.node_balance", Unit: "ratio", Better: "higher"},
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},
}

// defOf finds a metric's definition by name in either table.
func defOf(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
