package main

import (
	"sort"
	"strings"

	"phasetune"
)

// metricDef names one metric, its unit and, for per-layer metrics, whether
// it is an exact count (taken from the first traced iteration) rather than
// a host-time measurement (the median over iterations).
type metricDef struct {
	name  string
	unit  string
	exact bool
}

// endToEndMetrics are the summary metrics of an untraced run: they apply
// to every workload and are never zero.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{name: "wall_s", unit: "s"},
		{name: "cpu_s", unit: "s"},
		{name: "sim_mips", unit: "Minstr/s"},
		{name: "setup_s", unit: "s"},
		{name: "peak_rss_mb", unit: "MiB"},
	}
}

// extraMetrics are the untraced run's printed metrics outside the summary:
// they apply to some workloads only, can be zero, or need more ops than a
// run may make.
func extraMetrics() []metricDef {
	return []metricDef{
		{name: "wall_s_tail", unit: "s"},
		{name: "error_rate", unit: "frac"},
		{name: "sim_tput_ratio.static", unit: "ratio"},
		{name: "sim_tput_ratio.probe", unit: "ratio"},
		{name: "sim_tput_ratio.hybrid", unit: "ratio"},
		{name: "sim_tput_ratio.oracle", unit: "ratio"},
		{name: "sim_p50_sojourn_s", unit: "s"},
		{name: "sim_p99_sojourn_s", unit: "s"},
		{name: "sim_done_frac", unit: "frac"},
	}
}

// perLayerMetrics are the summary metrics of a traced run, layer by layer.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		// Static pipeline.
		{name: "workload.suite_s", unit: "s"},
		{name: "prog.key_s", unit: "s"},
		{name: "prog.encode_bytes", unit: "bytes", exact: true},
		{name: "cfg.build_s", unit: "s"},
		{name: "phase.cluster_s", unit: "s"},
		{name: "summarize.loops_s", unit: "s"},
		{name: "transition.plan_s", unit: "s"},
		{name: "instrument.apply_s", unit: "s"},
		{name: "exec.image_s", unit: "s"},
		{name: "instrument.marks", unit: "count", exact: true},
		{name: "instrument.space_overhead", unit: "frac", exact: true},
		{name: "sim.cache_misses", unit: "count", exact: true},
		{name: "sim.cache_hits", unit: "count", exact: true},
		{name: "sim.prepare_s", unit: "s"},
		// Interpreter and memo.
		{name: "exec.step_ns", unit: "ns"},
		{name: "sim.run_s", unit: "s"},
		{name: "sim.instructions", unit: "count", exact: true},
		{name: "exec.memo_hit_rate", unit: "frac", exact: true},
		{name: "exec.memo_replayed_frac", unit: "frac", exact: true},
		{name: "exec.memo_chunks", unit: "count", exact: true},
		{name: "exec.memo_fill", unit: "frac", exact: true},
		{name: "exec.memo_saving_frac", unit: "frac"},
		{name: "sim.warm_over_cold", unit: "ratio"},
		{name: "go.alloc_mb", unit: "MiB"},
		{name: "go.gc_cycles", unit: "count"},
		{name: "go.gc_cpu_frac", unit: "frac"},
	}
	// Simulated-time rollups.
	for _, c := range phasetune.LedgerCategories() {
		defs = append(defs, metricDef{name: "ledger." + ledgerName(c), unit: "frac", exact: true})
	}
	defs = append(defs,
		metricDef{name: "osched.switches", unit: "count", exact: true},
		metricDef{name: "osched.overcommit_slices", unit: "count", exact: true},
		metricDef{name: "osched.peak_runnable", unit: "count", exact: true},
		metricDef{name: "tuning.marks_executed", unit: "count", exact: true},
		metricDef{name: "online.windows", unit: "count", exact: true},
		metricDef{name: "online.monitor_frac", unit: "frac", exact: true},
		metricDef{name: "online.switches", unit: "count", exact: true},
		metricDef{name: "online.refreshes", unit: "count", exact: true},
		metricDef{name: "online.counter_defers", unit: "count", exact: true},
		// Fabric.
		metricDef{name: "dist.wall_over_local", unit: "ratio"},
		metricDef{name: "dist.first_commit_s", unit: "s"},
		metricDef{name: "dist.commit_gap_s", unit: "s"},
		// The measurement itself.
		metricDef{name: "trace.overhead_frac", unit: "frac"},
	)
	return defs
}

// unitOf returns the unit of a named end-to-end or extra metric.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEndMetrics(), extraMetrics()} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("coldbench: unknown metric " + name)
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ledgerName is a ledger category as a metric name component.
func ledgerName(category string) string { return strings.ReplaceAll(category, "-", "_") }
