// Command coldbench is phasetune's benchmark: it runs one named workload as
// a sequence of cold ops (fresh Session, image cache and segment memo each)
// for a fixed host-time budget, checks every op's output, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer breakdown measured
// from outside the program. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload cold_grid -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metric → layer map and the protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"phasetune"
)

// minOps is the least number of ops a run performs, however short its
// budget; the simulated-answer metrics pool exactly these first ops, so
// they repeat bit for bit for a given seed.
const minOps = 3

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env records the host conditions every output carries.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`
}

func hostEnv() env {
	return env{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Workers: sweepWorkers(), Shards: shards,
	}
}

// sweepWorkers is the goroutine worker count of every local sweep: the
// host's CPU count, capped at 2 so results on bigger hosts stay comparable.
func sweepWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func main() {
	name := flag.String("workload", "", "workload name: cold_grid, showdown, serving or sharded_grid")
	seed := flag.Uint64("seed", 1, "input seed; every op's workload seeds derive from it")
	seconds := flag.Float64("seconds", 20, "host seconds to keep issuing ops")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := flag.String("out", filepath.Join(".bench_build", "coldbench"), "directory for the full result record")
	flag.Parse()

	w, err := workloadByName(*name)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	var rep *report
	if *traced == 1 {
		rep = runTraced(ctx, w, fullScale, *seed, budget)
	} else {
		rep = runMeasured(ctx, w, fullScale, *seed, budget)
	}
	rep.Env = hostEnv()
	rep.Workload, rep.Seed, rep.Trace = w.name, *seed, *traced

	if err := rep.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := rep.summaryLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// report is one run's full record: the summary metrics plus everything
// printed for people, and the spans of a traced run.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     int      `json:"trace"`
	Env       env      `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics are the summary metrics: end-to-end or per-layer.
	Metrics map[string]metricValue `json:"metrics"`
	// Extra are printed metrics outside the summary: those that apply to
	// some workloads only, or need more ops than a run made.
	Extra map[string]metricValue `json:"extra,omitempty"`
	// Missing lists metrics the run could not compute (too few ops).
	Missing []string `json:"missing,omitempty"`
	// Notes are human-readable lines printed before the summary.
	Notes []string   `json:"notes,omitempty"`
	Ops   []opRecord `json:"ops,omitempty"`
	Spans []span     `json:"spans,omitempty"`
}

// opRecord is one measured op of an untraced run.
type opRecord struct {
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	Instructions uint64  `json:"instructions"`
}

func newReport() *report {
	return &report{Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}}
}

func (r *report) fail(op int, err error) {
	r.Failed++
	msg := fmt.Sprintf("op %d: %v", op, err)
	r.Errors = append(r.Errors, msg)
	fmt.Fprintln(os.Stderr, "coldbench: check failed:", msg)
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// JSON has no NaN: a metric a run could not compute is listed as missing.
	rec := *r
	rec.Metrics, rec.Missing = finite(r.Metrics)
	var missing []string
	rec.Extra, missing = finite(r.Extra)
	rec.Missing = append(rec.Missing, missing...)
	blob, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// finite splits m into its finite values and the names of the others.
func finite(m map[string]metricValue) (map[string]metricValue, []string) {
	out := map[string]metricValue{}
	var bad []string
	for _, name := range sortedKeys(m) {
		if v := m[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, name)
			continue
		}
		out[name] = m[name]
	}
	return out, bad
}

func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "coldbench %s seed=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d workers=%d shards=%d\n",
		r.Workload, r.Seed, r.Trace, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.Workers, r.Env.Shards)
	for _, n := range r.Notes {
		fmt.Fprintln(f, n)
	}
	for _, set := range []map[string]metricValue{r.Metrics, r.Extra} {
		for _, name := range sortedKeys(set) {
			fmt.Fprintf(f, "  %-28s %14.6g %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}

// summaryLine renders the final JSON line; it refuses a metric that is not
// a finite number rather than print an unparseable or misleading result.
func (r *report) summaryLine() (string, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s has no value (%d ops attempted, %d failed)", name, r.Attempted, r.Failed)
		}
	}
	blob, err := json.Marshal(summary{
		Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics,
	})
	return string(blob), err
}

// runMeasured is the end-to-end run: cold ops until the budget is spent
// (at least minOps). Before each op, from a collected heap, the set-up the
// op needs is timed on its own; setup_s is the median of those timings.
func runMeasured(ctx context.Context, w *workload, sc scale, seed uint64, budget time.Duration) *report {
	rep := newReport()
	workers := sweepWorkers()

	var setups []float64
	var walls, cpus []float64
	var instrs, wallSum float64
	ans := newAnswer()
	deadline := time.Now().Add(budget)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		p := w.plan(sc, derive(seed, uint64(i)))
		rep.Attempted++
		runtime.GC()
		d, err := timeSetup(p)
		if err != nil {
			rep.fail(i, fmt.Errorf("set-up: %w", err))
			continue
		}
		setups = append(setups, d.Seconds())
		r, err := runOp(ctx, p, runOpts{workers: workers, sharded: w.sharded})
		if err == nil {
			err = checkOp(ctx, w, p, r, workers)
		}
		if err != nil {
			rep.fail(i, err)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rep.Ops = append(rep.Ops, opRecord{r.wall.Seconds(), r.cpu.Seconds(), r.instructions()})
		instrs += float64(r.instructions())
		wallSum += r.wall.Seconds()
		if i < minOps {
			ans.add(p, r)
		}
	}

	set := func(m map[string]metricValue, name string, v float64) { m[name] = metricValue{v, unitOf(name)} }
	set(rep.Metrics, "wall_s", median(walls))
	set(rep.Metrics, "cpu_s", median(cpus))
	set(rep.Metrics, "sim_mips", instrs/1e6/wallSum)
	set(rep.Metrics, "setup_s", median(setups))
	set(rep.Metrics, "peak_rss_mb", peakRSSMiB())

	set(rep.Extra, "error_rate", float64(rep.Failed)/float64(rep.Attempted))
	if pct, v, n, ok := tail(walls); ok {
		set(rep.Extra, "wall_s_tail", v)
		rep.Notes = append(rep.Notes, fmt.Sprintf("wall_s_tail is p%g of %d ops", pct, n))
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("wall_s_tail: %d ops, too few for a percentile with 10 beyond it", n))
	}
	for _, col := range []struct{ metric, policy string }{
		{"sim_tput_ratio.static", "static"}, {"sim_tput_ratio.probe", "dynamic/probe"},
		{"sim_tput_ratio.hybrid", "hybrid"}, {"sim_tput_ratio.oracle", "oracle"},
	} {
		if xs := ans.tputRatio[col.policy]; len(xs) > 0 {
			set(rep.Extra, col.metric, mean(xs))
		}
	}
	if ans.adm > 0 {
		set(rep.Extra, "sim_p50_sojourn_s", phasetune.Quantile(ans.sojourns, 0.5))
		set(rep.Extra, "sim_p99_sojourn_s", phasetune.Quantile(ans.sojourns, 0.99))
		set(rep.Extra, "sim_done_frac", float64(ans.done)/float64(ans.adm))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d ops attempted, %d failed; sim_* metrics pool the first %d ops", rep.Attempted, rep.Failed, minOps))
	return rep
}

// timeSetup times building what an op's runs need before the first run
// starts: the suite (closed groups) or the serving fleet and arrival
// schedule (open groups) of every distinct workload spec.
func timeSetup(p plan) (time.Duration, error) {
	cost := phasetune.DefaultCost()
	t0 := time.Now()
	for _, g := range p {
		if g.open {
			for _, c := range g.cells {
				q := phasetune.WorkloadSpec{Seed: c.spec.Seed, Arrivals: c.spec.Arrivals}
				if _, err := q.MaterializeOpen(cost, g.machine); err != nil {
					return 0, err
				}
			}
			continue
		}
		suite, err := phasetune.SuiteFor(cost, g.machine)
		if err != nil {
			return 0, err
		}
		seen := map[phasetune.WorkloadSpec]bool{}
		for _, c := range g.cells {
			if q := *c.spec.Queues; !seen[q] {
				seen[q] = true
				if _, err := q.Materialize(suite, cost, g.machine); err != nil {
					return 0, err
				}
			}
		}
	}
	return time.Since(t0), nil
}
