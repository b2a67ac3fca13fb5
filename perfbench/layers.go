package main

// layerUnits lists every per-layer metric of the traced run, in print
// order, with its unit.
var layerUnits = []struct{ name, unit string }{
	{"fleet.advance_s", "s"},
	{"fleet.event_s", "s"},
	{"fleet.ticks", "count"},
	{"fleet.windows", "count"},
	{"fleet.mean_window_ticks", "ticks"},
	{"fleet.host_us_per_tick", "us"},
	{"fleet.queued_jobs", "count"},
	{"fleet.log_records", "count"},
	{"fleet.log_bytes", "bytes"},
	{"sim.tick_solves", "count"},
	{"sim.tick_replays", "count"},
	{"sim.replay_frac", "fraction"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_frac", "fraction"},
	{"cache.probe_ms", "ms"},
	{"cache.prefetch_unused_frac", "fraction"},
	{"cache.restore_ms", "ms"},
	{"cache.snapshot_ms", "ms"},
	{"core.canonical_ms", "ms"},
	{"core.probe_sim_s", "sim_s"},
	{"obs.write_metrics_ms", "ms"},
	{"obs.timeline_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.status_ms", "ms"},
	{"server.metrics_ms", "ms"},
	{"server.outside_ms", "ms"},
	{"server.sim_pace", "fraction"},
	{"bench.gen_late_ms", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
}

// reportLayers prints every per-layer metric; one the workload failed to
// produce is a failed check, not a silent gap.
func reportLayers(r *report, layer map[string]float64) {
	for _, l := range layerUnits {
		v, ok := layer[l.name]
		r.check(ok, "per-layer metric %s not measured", l.name)
		r.set(l.name, l.unit, v, "")
	}
}
