// Benchmarks comparing the legacy sequential experiment loop (one-shot Run,
// no artifact sharing) against the sweep engine (bounded worker pool plus
// content-keyed image cache) on the same technique grid, so BENCH_*.json
// tracks the win. The grid is the shape every experiment driver has: a few
// technique variants by a few workload seeds over one suite.
package phasetune_test

import (
	"context"
	"testing"

	"phasetune"
)

// benchSweepSpecs builds the shared grid: 3 technique variants x 2 seeds,
// 4-slot workloads over the full suite, 10 simulated seconds.
func benchSweepSpecs(b *testing.B) []phasetune.RunSpec {
	b.Helper()
	suite, err := phasetune.Suite()
	if err != nil {
		b.Fatal(err)
	}
	variants := []phasetune.TechniqueParams{
		phasetune.BestParams(),
		{Technique: phasetune.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
		{Technique: phasetune.Interval, MinSize: 45, PropagateThroughUntyped: true},
	}
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{1, 2} {
		w := phasetune.NewWorkload(suite, 4, 8, seed)
		for _, params := range variants {
			specs = append(specs, phasetune.RunSpec{
				Workload: w, DurationSec: 10, Mode: phasetune.Tuned,
				Params: params, Seed: seed,
			})
		}
	}
	return specs
}

// BenchmarkGridSequential is the pre-sweep architecture: every run calls
// the one-shot Run wrapper, which re-executes the full static pipeline for
// every benchmark in every run.
func BenchmarkGridSequential(b *testing.B) {
	specs := benchSweepSpecs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			_, err := phasetune.Run(phasetune.RunConfig{
				Workload: spec.Workload, DurationSec: spec.DurationSec,
				Mode: spec.Mode, Params: spec.Params,
				Tuning:     phasetune.DefaultTuning(),
				TypingOpts: phasetune.DefaultTyping(), Seed: spec.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridSweep runs the identical grid through Session.Sweep: the
// runs fan across the worker pool and each distinct (benchmark, technique)
// artifact is prepared once per session — later sweeps of the campaign do
// no static-pipeline work at all.
func BenchmarkGridSweep(b *testing.B) {
	specs := benchSweepSpecs(b)
	sess := phasetune.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Sweep(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := sess.CacheStats()
	b.ReportMetric(float64(stats.Misses), "pipeline-runs")
	b.ReportMetric(float64(stats.Hits), "cache-hits")
	// The session's cost-table store builds each lane once: the hit rate
	// is the fraction of dispatch bursts priced from an existing table.
	tables := sess.MemoStats()
	b.ReportMetric(tables.HitRate(), "memo-hit-rate")
	b.ReportMetric(float64(tables.Lanes), "cost-tables")
}
