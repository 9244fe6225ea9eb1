package main

// metricDef names one reported metric, its unit, and which workloads
// measure it: "" for all, "inproc" for bench-dblp, "serve" for both serve
// workloads, "churn" for serve-churn. A workload prints every metric of
// its mode; one outside its scope reads 0, meaning the benchmark made no
// call into that layer on this workload.
type metricDef struct {
	name, unit, scope string
}

// endToEnd lists the metrics of an untraced run (--trace 0), as
// BENCHMARK.json names them.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"campaigns_per_s", "1/s", ""},
	{"campaign_ms_p50", "ms", ""},
	{"campaign_ms_p90", "ms", ""},
	{"step_ms_p50", "ms", ""},
	{"step_ms_p99", "ms", ""},
	{"profit_mean", "nodes", ""},
	{"live_heap_mb", "MiB", ""},
	{"ok_frac", "ratio", ""},
}

// perLayer lists the metrics of a traced run (--trace 1), as
// BENCHMARK.json names them. The README maps each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"gen.generate_s", "s", ""},
	{"adaptive.prepare_s", "s", "inproc"},
	{"imm.rr_total", "count", "inproc"},
	{"cascade.sample_s", "s", "inproc"},
	{"cascade.sample_ms_p50", "ms", "inproc"},
	{"cascade.observe_s", "s", "inproc"},
	{"adaptive.new_session_s", "s", "inproc"},
	{"adaptive.next_s", "s", "inproc"},
	{"adaptive.next_ms_p50", "ms", "inproc"},
	{"adaptive.next_ms_p99", "ms", "inproc"},
	{"adaptive.next_self_s", "s", "inproc"},
	{"adaptive.observe_s", "s", "inproc"},
	{"ris.sampling_s", "s", ""},
	{"ris.rr_drawn", "count", ""},
	{"ris.rr_reused", "count", ""},
	{"ris.reuse_frac", "ratio", ""},
	{"ris.rr_visits", "count", ""},
	{"ris.rr_edge_touches", "count", ""},
	{"ris.ns_per_edge_touch", "ns", ""},
	{"ris.rr_peak_mb", "MiB", ""},
	{"adaptive.attempts", "count", ""},
	{"adaptive.rr_batches", "count", ""},
	{"adaptive.certified_early", "count", ""},
	{"adaptive.fallback_frac", "ratio", ""},
	{"http.create_ms_mean", "ms", "serve"},
	{"http.step_ms_mean", "ms", "serve"},
	{"http.result_ms_mean", "ms", "serve"},
	{"http.delete_ms_mean", "ms", "serve"},
	{"http.mutate_ms_mean", "ms", "churn"},
	{"http.checkpoint_ms_mean", "ms", "churn"},
	{"http.restore_ms_mean", "ms", "churn"},
	{"service.create_ms_mean", "ms", "serve"},
	{"service.step_ms_mean", "ms", "serve"},
	{"service.result_ms_mean", "ms", "serve"},
	{"service.delete_ms_mean", "ms", "serve"},
	{"service.mutate_ms_mean", "ms", "churn"},
	{"service.checkpoint_ms_mean", "ms", "churn"},
	{"service.restore_ms_mean", "ms", "churn"},
	{"service.campaign_step_ms_mean", "ms", "serve"},
	{"http.step_transport_ms", "ms", "serve"},
	{"service.step_handler_overhead_ms", "ms", "serve"},
	{"mutate_ms_p50", "ms", "churn"},
	{"mutate_ms_p90", "ms", "churn"},
	{"checkpoint_ms_p50", "ms", "churn"},
	{"checkpoint_ms_p90", "ms", "churn"},
	{"restore_ms_p50", "ms", "churn"},
	{"restore_ms_p90", "ms", "churn"},
	{"graph.touched_per_mutate", "nodes", "churn"},
	{"service.checkpoint_kb_mean", "KiB", "churn"},
	{"service.prepares", "count", "serve"},
	{"service.evictions", "count", "serve"},
	{"service.registry_entries", "count", "serve"},
	{"service.throttled", "count", "serve"},
	{"go.alloc_mb_per_campaign", "MiB", ""},
	{"go.gc_cycles", "count", ""},
	{"trace.campaigns_per_s_untraced", "1/s", ""},
	{"trace.campaigns_per_s_traced", "1/s", ""},
	{"trace.overhead_frac", "ratio", ""},
	{"trace.glue_ms_per_campaign", "ms", ""},
	{"trace.glue_frac", "ratio", ""},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// inScope reports whether a workload of the given kind measures a metric
// of the given scope.
func inScope(scope string, cfg config) bool {
	switch scope {
	case "":
		return true
	case "inproc":
		return !cfg.Serve
	case "serve":
		return cfg.Serve
	case "churn":
		return cfg.Churn
	}
	return false
}
