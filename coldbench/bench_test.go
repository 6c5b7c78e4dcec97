package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile mirrors the fields of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var goldenWorkloads = []string{"cold_grid", "showdown", "serving", "sharded_grid"}

var goldenEndToEnd = []string{"wall_s", "cpu_s", "sim_mips", "setup_s", "peak_rss_mb"}

var goldenExtra = []string{"wall_s_tail", "error_rate",
	"sim_tput_ratio.static", "sim_tput_ratio.probe", "sim_tput_ratio.hybrid", "sim_tput_ratio.oracle",
	"sim_p50_sojourn_s", "sim_p99_sojourn_s", "sim_done_frac"}

var goldenPerLayer = []string{
	"workload.suite_s", "prog.key_s", "prog.encode_bytes", "cfg.build_s", "phase.cluster_s",
	"summarize.loops_s", "transition.plan_s", "instrument.apply_s", "exec.image_s",
	"instrument.marks", "instrument.space_overhead", "sim.cache_misses", "sim.cache_hits", "sim.prepare_s",
	"exec.step_ns", "sim.run_s", "sim.instructions", "exec.memo_hit_rate", "exec.memo_replayed_frac",
	"exec.memo_chunks", "exec.memo_fill", "exec.memo_saving_frac", "sim.warm_over_cold",
	"go.alloc_mb", "go.gc_cycles", "go.gc_cpu_frac",
	"ledger.useful", "ledger.asymmetry", "ledger.spill", "ledger.marks", "ledger.monitor",
	"ledger.migration", "ledger.ctx_switch", "ledger.slicing", "ledger.idle",
	"osched.switches", "osched.overcommit_slices", "osched.peak_runnable", "tuning.marks_executed",
	"online.windows", "online.monitor_frac", "online.switches", "online.refreshes", "online.counter_defers",
	"dist.wall_over_local", "dist.first_commit_s", "dist.commit_gap_s",
	"trace.overhead_frac",
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// TestNameSets pins the workload and metric names, and checks that
// BENCHMARK.json lists exactly what the program reports, with the same units.
func TestNameSets(t *testing.T) {
	var ws []string
	for _, w := range workloads() {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", ws, goldenWorkloads},
		{"end-to-end metrics", names(endToEndMetrics()), goldenEndToEnd},
		{"extra metrics", names(extraMetrics()), goldenExtra},
		{"per-layer metrics", names(perLayerMetrics()), goldenPerLayer},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.what, c.got, c.want)
		}
	}

	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	var fileWs []string
	for _, w := range bf.Workloads {
		fileWs = append(fileWs, w.Name)
	}
	if !reflect.DeepEqual(fileWs, goldenWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", fileWs, goldenWorkloads)
	}
	type nu struct{ name, unit string }
	var fileE2E, fileLayer, progE2E, progLayer []nu
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, nu{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		fileLayer = append(fileLayer, nu{m.Name, m.Unit})
	}
	for _, m := range endToEndMetrics() {
		progE2E = append(progE2E, nu{m.name, m.unit})
	}
	for _, m := range perLayerMetrics() {
		progLayer = append(progLayer, nu{m.name, m.unit})
	}
	if !reflect.DeepEqual(fileE2E, progE2E) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", fileE2E, progE2E)
	}
	if !reflect.DeepEqual(fileLayer, progLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", fileLayer, progLayer)
	}
}

// checkSummary asserts a report carries exactly the wanted metrics, all
// finite, and renders a summary line.
func checkSummary(t *testing.T, rep *report, want []metricDef, positive bool) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := rep.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.name, v.Value)
		case positive && !(v.Value > 0):
			t.Errorf("metric %s = %v, want > 0", m.name, v.Value)
		case v.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	if _, err := rep.summaryLine(); err != nil {
		t.Error(err)
	}
}

// TestWorkloadsTiny runs every workload end to end and traced at a tiny
// size: every op passes its checks and every metric has a value.
func TestWorkloadsTiny(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep := runMeasured(ctx, w, tinyScale, 7, 0)
			if rep.Failed != 0 || rep.Attempted < minOps {
				t.Fatalf("attempted %d failed %d: %v", rep.Attempted, rep.Failed, rep.Errors)
			}
			checkSummary(t, rep, endToEndMetrics(), true)
			if got := rep.Extra["error_rate"].Value; got != 0 {
				t.Errorf("error_rate %v", got)
			}

			traced := runTraced(ctx, w, tinyScale, 7, 0)
			if traced.Failed != 0 {
				t.Fatalf("traced: attempted %d failed %d: %v", traced.Attempted, traced.Failed, traced.Errors)
			}
			checkSummary(t, traced, perLayerMetrics(), false)
			for _, name := range []string{"sim.prepare_s", "sim.run_s", "prog.key_s", "cfg.build_s",
				"phase.cluster_s", "instrument.apply_s", "exec.image_s", "sim.cache_misses", "sim.instructions"} {
				if !(traced.Metrics[name].Value > 0) {
					t.Errorf("traced %s = %v, want > 0", name, traced.Metrics[name].Value)
				}
			}
		})
	}
}

// TestSimAnswerRepeats pins that the simulated metrics and per-layer counts
// are functions of the seed alone.
func TestSimAnswerRepeats(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("serving")
	if err != nil {
		t.Fatal(err)
	}
	a, b := runMeasured(ctx, w, tinyScale, 3, 0), runMeasured(ctx, w, tinyScale, 3, 0)
	for _, name := range []string{"sim_p50_sojourn_s", "sim_p99_sojourn_s", "sim_done_frac"} {
		if a.Extra[name] != b.Extra[name] {
			t.Errorf("%s: %v then %v", name, a.Extra[name], b.Extra[name])
		}
	}
	ta, tb := runTraced(ctx, w, tinyScale, 3, 0), runTraced(ctx, w, tinyScale, 3, 0)
	for _, m := range perLayerMetrics() {
		if m.exact && ta.Metrics[m.name] != tb.Metrics[m.name] {
			t.Errorf("%s: %v then %v", m.name, ta.Metrics[m.name], tb.Metrics[m.name])
		}
	}
}

// TestFailingCheckCounted shows a failed check lands in failed/attempted
// (error_rate) and clears the summary's correct flag.
func TestFailingCheckCounted(t *testing.T) {
	w, err := workloadByName("cold_grid")
	if err != nil {
		t.Fatal(err)
	}
	broken := *w
	broken.check = func(plan, *opResult) error { return errors.New("deliberately failing check") }
	rep := runMeasured(context.Background(), &broken, tinyScale, 7, 0)
	if rep.Attempted < minOps || rep.Failed != rep.Attempted {
		t.Fatalf("attempted %d failed %d, want every op failed", rep.Attempted, rep.Failed)
	}
	if got := rep.Extra["error_rate"].Value; got != 1 {
		t.Errorf("error_rate %v, want 1", got)
	}
	if _, err := rep.summaryLine(); err == nil {
		t.Error("summary rendered although no op produced a measurement")
	}

	// One failure among passing ops: the summary renders with correct=false.
	calls := 0
	broken.check = func(p plan, r *opResult) error {
		calls++
		if calls == 2 {
			return errors.New("deliberately failing check")
		}
		return checkSingleflight(p, r)
	}
	rep = runMeasured(context.Background(), &broken, tinyScale, 7, 0)
	if rep.Failed != 1 {
		t.Fatalf("failed %d, want 1", rep.Failed)
	}
	line, err := rep.summaryLine()
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal([]byte(line), &s); err != nil {
		t.Fatal(err)
	}
	if s.Correct || s.Failed != 1 || s.Attempted != rep.Attempted {
		t.Errorf("summary %+v", s)
	}
	if want := 1 / float64(rep.Attempted); rep.Extra["error_rate"].Value != want {
		t.Errorf("error_rate %v, want %v", rep.Extra["error_rate"].Value, want)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, n, ok := tail(xs)
	if !ok || pct != 90 || v != 90 || n != 100 {
		t.Errorf("tail of 1..100 = p%v %v (n %d, ok %v), want p90 90", pct, v, n, ok)
	}
	if _, _, _, ok := tail(xs[:15]); ok {
		t.Error("15 samples have no percentile with 10 beyond it above p75")
	}
}

func TestSelfTimesConserve(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	root := tr.beginOp("op")
	_ = tr.do("a", func() error { return tr.do("b", func() error { return nil }) })
	_ = tr.do("c", func() error { return nil })
	tr.end(root)
	if _, err := tr.selfTimes(root); err != nil {
		t.Fatal(err)
	}
	// A child escaping its parent breaks conservation and is reported.
	tr.spans[2].End = tr.spans[0].End + 1
	if _, err := tr.selfTimes(root); err == nil {
		t.Error("escaping span not reported")
	}
}
