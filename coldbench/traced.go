package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"phasetune"
	"phasetune/internal/cfg"
	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/sim"
	"phasetune/internal/summarize"
	"phasetune/internal/transition"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share Op; Parent is -1 for the op's root, whose self time is "other".
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written when the run ends. It
// is single-goroutine: traced ops call the layers one after another.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	ops   int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens a new op's root span.
func (t *tracer) beginOp(name string) int {
	t.ops++
	return t.begin(name)
}

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.ops, ID: id, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do times f as a child span of the open span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns the self time of every layer in the op rooted at root
// (span minus the union of its children), keyed by span name, with the
// root's own self time under "other". It checks conservation: the self
// times must sum to the root's wall time exactly.
func (t *tracer) selfTimes(root int) (map[string]time.Duration, error) {
	children := map[int][]span{}
	op := t.spans[root].Op
	for _, s := range t.spans {
		if s.Op == op && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	var sum int64
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			if k.Start < s.Start || k.End > s.End {
				return nil, fmt.Errorf("span %s escapes its parent %s", k.Name, s.Name)
			}
			lo := k.Start
			if lo < edge {
				lo = edge
			}
			if k.End > lo {
				covered += k.End - lo
				edge = k.End
			}
		}
		d := s.End - s.Start - covered
		name := s.Name
		if s.ID == root {
			name = "other"
		}
		self[name] += time.Duration(d)
		sum += d
	}
	if wall := t.spans[root].End - t.spans[root].Start; sum != wall {
		return nil, fmt.Errorf("op %d: self times sum to %d ns, wall is %d ns", op, sum, wall)
	}
	return self, nil
}

// pair is one distinct static-pipeline product an op needs.
type pair struct {
	prog *prog.Program
	spec phasetune.ImageSpec
	art  *phasetune.Artifact
}

// groupInputs lists the distinct programs and (program, image spec) pairs
// one group's runs need, deduplicated by program name (the name identifies
// the content: a suite, or the serving fleet, has one program per name).
func groupInputs(g group, sess *phasetune.Session) ([]pair, error) {
	cost := phasetune.DefaultCost()
	var pairs []pair
	seen := map[imageKey]bool{}
	for _, c := range g.cells {
		var benches []*phasetune.Benchmark
		if c.spec.Arrivals != nil {
			q := phasetune.WorkloadSpec{Seed: c.spec.Seed, Arrivals: c.spec.Arrivals}
			st, err := q.MaterializeOpen(cost, g.machine)
			if err != nil {
				return nil, err
			}
			benches = st.Fleet
		} else {
			suite, err := sess.Suite()
			if err != nil {
				return nil, err
			}
			w, err := c.spec.Queues.Materialize(suite, cost, g.machine)
			if err != nil {
				return nil, err
			}
			for _, slot := range w.Slots {
				benches = append(benches, slot...)
			}
		}
		spec := imageSpecFor(c.spec)
		for _, b := range benches {
			k := imageKey{b.Name(), spec}
			if !seen[k] {
				seen[k] = true
				pairs = append(pairs, pair{prog: b.Prog, spec: spec})
			}
		}
	}
	return pairs, nil
}

// sample is one traced iteration's per-layer measurements.
type sample map[string]float64

// runTraced is the per-layer run: traced iterations until the budget is
// spent (at least one). Host-time layer metrics are medians over the
// iterations; counts and simulated-time rollups come from the first
// iteration, so they repeat exactly for a given seed.
func runTraced(ctx context.Context, w *workload, sc scale, seed uint64, budget time.Duration) *report {
	rep := newReport()
	tr := &tracer{t0: time.Now()}
	var samples []sample
	// One untimed op first, so the first iteration does not pay the
	// process's own start-up (heap growth, page faults) that later ones skip.
	rep.Attempted++
	if _, err := runOp(ctx, w.plan(sc, derive(seed, 1<<32)), runOpts{workers: sweepWorkers()}); err != nil {
		rep.fail(-1, fmt.Errorf("warm-up: %w", err))
	}
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s, attempted, err := tracedIteration(ctx, w, sc, derive(seed, uint64(i)), i == 0, tr)
		rep.Attempted += attempted
		if err != nil {
			rep.fail(i, err)
			tr.stack = tr.stack[:0] // close the failed op's open spans
			if i == 0 {
				break // the exact metrics come from the first iteration
			}
			continue
		}
		samples = append(samples, s)
	}
	rep.Spans = tr.spans
	for _, m := range perLayerMetrics() {
		var xs []float64
		for _, s := range samples {
			if v, ok := s[m.name]; ok {
				xs = append(xs, v)
			}
		}
		v := median(xs)
		if m.exact && len(xs) > 0 {
			v = xs[0]
		}
		rep.Metrics[m.name] = metricValue{v, m.unit}
	}
	var agree []float64
	for _, s := range samples {
		agree = append(agree, s["trace.stages_over_prepare"])
	}
	rep.Extra["trace.stages_over_prepare"] = metricValue{median(agree), "ratio"}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d traced iterations, %d ops attempted, %d failed; counts from iteration 0, times are medians",
		len(samples), rep.Attempted, rep.Failed))
	return rep
}

// tracedIteration measures every layer on one op's specs. It runs the op
// several ways — untraced, through the fabric, traced, sequential with the
// memo on, repeated warm, sequential with the memo off, and (first
// iteration only) with cycle accounting — and checks that every way gives
// the same result bytes.
func tracedIteration(ctx context.Context, w *workload, sc scale, opSeed uint64, first bool, tr *tracer) (sample, int, error) {
	p := w.plan(sc, opSeed)
	s := sample{}
	workers := sweepWorkers()
	attempted := 0

	// 1. The untraced op.
	attempted++
	local, err := runOp(ctx, p, runOpts{workers: workers})
	if err != nil {
		return nil, attempted, err
	}
	if err := checkBasic(p, local); err != nil {
		return nil, attempted, err
	}
	if w.check != nil {
		if err := w.check(p, local); err != nil {
			return nil, attempted, err
		}
	}
	s["go.alloc_mb"] = local.goDelta.allocBytes / (1 << 20)
	s["go.gc_cycles"] = local.goDelta.gcCycles
	s["go.gc_cpu_frac"] = local.goDelta.gcCPU / local.cpu.Seconds()
	for gi := range p {
		s["sim.cache_misses"] += float64(local.cache[gi].Misses)
		s["sim.cache_hits"] += float64(local.cache[gi].Hits)
	}
	s["sim.instructions"] = float64(local.instructions())
	rollups(s, local)
	local.sessions = nil // keep the results, release the caches and memos

	// 2. The same specs through the in-process fabric.
	attempted++
	if err := fabricOp(ctx, p, local, s); err != nil {
		return nil, attempted, fmt.Errorf("fabric: %w", err)
	}

	// 3. The traced op and its stage replay.
	attempted++
	pairs, err := tracedOp(ctx, p, local, s, tr)
	if err != nil {
		return nil, attempted, fmt.Errorf("traced op: %w", err)
	}
	if err := stepLoop(p, pairs, opSeed, s, tr); err != nil {
		return nil, attempted, fmt.Errorf("step loop: %w", err)
	}

	// 4. Memo and warm A/B, sequential so the memo counts are exact.
	attempted += 3
	on, err := runOp(ctx, p, runOpts{workers: 1})
	if err != nil {
		return nil, attempted, err
	}
	warm, err := repeatWarm(ctx, p, on)
	if err != nil {
		return nil, attempted, err
	}
	on.sessions = nil
	off, err := runOp(ctx, p, runOpts{workers: 1, memoOff: true})
	if err != nil {
		return nil, attempted, err
	}
	for _, r := range []*opResult{on, off} {
		if err := sameResults(local, r); err != nil {
			return nil, attempted, fmt.Errorf("sequential memo A/B: %w", err)
		}
	}
	s["exec.memo_saving_frac"] = 1 - on.wall.Seconds()/off.wall.Seconds()
	s["sim.warm_over_cold"] = warm.Seconds() / on.wall.Seconds()
	var ms phasetune.MemoStats
	for _, m := range on.memo {
		ms.Chunks += m.Chunks
		ms.Hits += m.Hits
		ms.Misses += m.Misses
		ms.ReplayedSteps += m.ReplayedSteps
		ms.RecordedSteps += m.RecordedSteps
	}
	s["exec.memo_hit_rate"] = ms.HitRate()
	s["exec.memo_replayed_frac"] = float64(ms.ReplayedSteps) / float64(ms.ReplayedSteps+ms.RecordedSteps)
	s["exec.memo_chunks"] = float64(ms.Chunks)
	s["exec.memo_fill"] = float64(ms.Chunks) / float64(phasetune.DefaultMemoChunks*len(on.memo))

	// 5. Cycle accounting, first iteration only: its rollups are exact.
	if first {
		attempted++
		led, err := runOp(ctx, p, runOpts{workers: workers, ledger: true})
		if err != nil {
			return nil, attempted, err
		}
		if err := sameResults(local, led); err != nil {
			return nil, attempted, fmt.Errorf("ledgered vs untraced: %w", err)
		}
		if err := ledgerRollups(s, led); err != nil {
			return nil, attempted, err
		}
	}
	return s, attempted, nil
}

// repeatWarm reruns every group of a finished op on its own session, whose
// image cache and segment memo are now full, and returns the wall time.
func repeatWarm(ctx context.Context, p plan, cold *opResult) (time.Duration, error) {
	t0 := time.Now()
	for gi, g := range p {
		res, err := cold.sessions[gi].Sweep(ctx, g.specs())
		if err != nil {
			return 0, err
		}
		if len(res) != len(g.cells) {
			return 0, fmt.Errorf("warm repeat: %d results", len(res))
		}
	}
	return time.Since(t0), nil
}

// tracedOp is the traced op. Part 1 fills each fresh session's image cache
// through ImageCache.Get (sim.prepare), then sweeps on that warm cache with
// a cold memo (sim.run). Part 2 replays the static pipeline's stages
// directly on the same (program, image spec) pairs, one span per stage.
func tracedOp(ctx context.Context, p plan, ref *opResult, s sample, tr *tracer) ([]pair, error) {
	cost := phasetune.DefaultCost()
	workers := sweepWorkers()
	traced := &opResult{}
	var all []pair

	runtime.GC() // as runOp does before the untraced op
	root := tr.beginOp("op")
	for _, g := range p {
		sess := sessionFor(g, runOpts{workers: workers})
		var pairs []pair
		err := tr.do("workload.suite", func() (err error) {
			pairs, err = groupInputs(g, sess)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = tr.do("sim.prepare", func() error {
			for i := range pairs {
				art, err := sess.Cache().Get(pairs[i].prog, pairs[i].spec, cost)
				if err != nil {
					return err
				}
				pairs[i].art = art
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		prepared := sess.CacheStats().Misses
		err = tr.do("sim.run", func() error {
			res, err := sess.Sweep(ctx, g.specs())
			traced.results = append(traced.results, res)
			return err
		})
		if err != nil {
			return nil, err
		}
		if got := sess.CacheStats().Misses; got != prepared || got != uint64(len(pairs)) {
			return nil, fmt.Errorf("%s: sweep prepared images the traced op did not (%d misses, %d pairs)",
				g.machine.Name, got, len(pairs))
		}
		all = append(all, pairs...)
	}
	tr.end(root)
	opWall := time.Duration(tr.spans[root].End - tr.spans[root].Start)
	if err := sameResults(ref, traced); err != nil {
		return nil, fmt.Errorf("traced vs untraced: %w", err)
	}
	self, err := tr.selfTimes(root)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"workload.suite", "sim.prepare", "sim.run"} {
		s[name+"_s"] = self[name].Seconds()
	}
	s["trace.overhead_frac"] = opWall.Seconds()/ref.wall.Seconds() - 1

	// Part 2: the stage replay.
	replay := tr.beginOp("replay")
	var encBytes, marks int
	var space float64
	var instrumented int
	hashed := map[*prog.Program]bool{}
	for _, pr := range all {
		if hashed[pr.prog] {
			continue
		}
		hashed[pr.prog] = true
		err := tr.do("prog.key", func() error {
			cw := &countingWriter{w: fnv.New64a()}
			err := prog.Encode(cw, pr.prog)
			encBytes += cw.n
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, pr := range all {
		bin, err := replayStages(tr, pr, cost)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.prog.Name, err)
		}
		if bin == nil {
			continue
		}
		if bin.NumMarks() != pr.art.Stats.Marks || bin.SpaceOverhead() != pr.art.Stats.SpaceOverhead {
			return nil, fmt.Errorf("%s: replay gives %d marks, the cache's artifact %d", pr.prog.Name, bin.NumMarks(), pr.art.Stats.Marks)
		}
		marks += bin.NumMarks()
		space += bin.SpaceOverhead()
		instrumented++
	}
	tr.end(replay)
	rself, err := tr.selfTimes(replay)
	if err != nil {
		return nil, err
	}
	var stages float64
	for _, name := range stageSpans {
		v := rself[name].Seconds()
		s[name+"_s"] = v
		stages += v
	}
	ratio := stages / s["sim.prepare_s"]
	if !(ratio > 0.5 && ratio < 2) {
		return nil, fmt.Errorf("stage replay took %.3gx the time of the cached preparation it replays", ratio)
	}
	s["trace.stages_over_prepare"] = ratio
	s["prog.encode_bytes"] = float64(encBytes)
	s["instrument.marks"] = float64(marks)
	if instrumented > 0 {
		s["instrument.space_overhead"] = space / float64(instrumented)
	}
	return all, nil
}

// stageSpans are the static pipeline's stages in the order they run.
var stageSpans = []string{"prog.key", "cfg.build", "phase.cluster", "summarize.loops",
	"transition.plan", "instrument.apply", "exec.image"}

// replayStages runs the stages the image cache ran for one pair, each in
// its own span, and returns the instrumented binary (nil for baseline).
func replayStages(tr *tracer, pr pair, cost phasetune.CostModel) (*instrument.Binary, error) {
	p := pr.prog
	if pr.spec.Baseline {
		return nil, tr.do("exec.image", func() error {
			_, err := exec.NewImage(p, nil, cost)
			return err
		})
	}
	var graphs []*cfg.Graph
	var cg *cfg.CallGraph
	var typing *phase.Typing
	var sum *summarize.Summary
	var plan *transition.Plan
	var bin *instrument.Binary
	steps := []struct {
		name string
		f    func() error
	}{
		{"cfg.build", func() (err error) {
			if graphs, err = cfg.BuildAll(p); err == nil {
				cg = cfg.BuildCallGraph(p, graphs)
			}
			return err
		}},
		{"phase.cluster", func() (err error) { typing, err = phase.ClusterBlocks(p, graphs, pr.spec.Typing); return err }},
		{"summarize.loops", func() error {
			if pr.spec.Params.Technique == transition.Loop {
				sum = summarize.SummarizeLoops(p, graphs, cg, typing, summarize.DefaultWeights())
			}
			return nil
		}},
		{"transition.plan", func() (err error) {
			plan, err = transition.ComputePlan(p, graphs, cg, typing, sum, pr.spec.Params)
			return err
		}},
		{"instrument.apply", func() (err error) { bin, err = instrument.ApplyWithGraphs(p, plan, graphs); return err }},
		{"exec.image", func() error { _, err := exec.NewImage(bin.Prog, bin, cost); return err }},
	}
	for _, st := range steps {
		if err := tr.do(st.name, st.f); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return bin, nil
}

type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += n
	return n, err
}

// stepsPerImage bounds the isolated interpreter loop per image.
const stepsPerImage = 20000

// stepLoop times Process.Step in isolation over every image the traced op
// prepared, on the first core type of the group's machine, no memo, no
// hooks: the interpreter's per-block cost without scheduling around it.
func stepLoop(p plan, pairs []pair, seed uint64, s sample, tr *tracer) error {
	cost := phasetune.DefaultCost()
	m := p[0].machine
	pars := exec.ParamsFor(cost, m)
	core := &pars[0]
	coreID := m.CoresOfType(core.Type)[0]
	shareKB := m.L2s[0].SizeKB
	var steps int
	root := tr.beginOp("step")
	t0 := time.Now()
	for _, pr := range pairs {
		proc := exec.NewProcess(1, pr.art.Image, &cost, seed, nil)
		for i := 0; i < stepsPerImage && !proc.Exited(); i++ {
			proc.Step(core, coreID, shareKB)
			steps++
		}
	}
	d := time.Since(t0)
	tr.end(root)
	if steps == 0 {
		return fmt.Errorf("no steps executed")
	}
	s["exec.step_ns"] = float64(d.Nanoseconds()) / float64(steps)
	return nil
}

// fabricOp runs every group's specs through dist.RunLocal with `shards`
// workers, timing the first commit and the gaps between commits, and
// checks the merged results against the local sweep's bytes.
func fabricOp(ctx context.Context, p plan, local *opResult, s sample) error {
	fab := &opResult{}
	var firsts, gaps []float64
	runtime.GC()
	t0 := time.Now()
	for _, g := range p {
		camp := campaignFor(g)
		var mu sync.Mutex
		var commits []time.Time
		start := time.Now()
		res, err := dist.RunLocal(ctx, camp, dist.LocalOptions{
			Workers: shards,
			OnResult: func(int, *sim.Result) {
				mu.Lock()
				commits = append(commits, time.Now())
				mu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		fab.results = append(fab.results, res)
		if len(commits) > 0 {
			firsts = append(firsts, commits[0].Sub(start).Seconds())
		}
		for i := 1; i < len(commits); i++ {
			gaps = append(gaps, commits[i].Sub(commits[i-1]).Seconds())
		}
	}
	wall := time.Since(t0)
	if err := sameResults(local, fab); err != nil {
		return err
	}
	s["dist.wall_over_local"] = wall.Seconds() / local.wall.Seconds()
	s["dist.first_commit_s"] = median(firsts)
	s["dist.commit_gap_s"] = median(gaps)
	return nil
}

// campaignFor lowers one group onto the fabric's wire form exactly as
// Session.SweepSharded does for a session with default settings; the
// byte-identity check against the local sweep guards the lowering.
func campaignFor(g group) dist.Campaign {
	sched := phasetune.DefaultScheduler()
	if g.open {
		sched.Overcommit = phasetune.OvercommitConfig{Enabled: true}
	}
	camp := dist.Campaign{Env: dist.EnvSpec{
		Version: dist.SpecVersion, Machine: *g.machine, Cost: phasetune.DefaultCost(),
		Sched: sched, Typing: phasetune.DefaultTyping(),
	}}
	for _, c := range g.cells {
		sp := c.spec
		queues := sp.Queues
		if sp.Arrivals != nil {
			queues = &phasetune.WorkloadSpec{Seed: sp.Seed, Arrivals: sp.Arrivals}
		}
		mode, params := lower(sp)
		tcfg, ocfg, pcfg := phasetune.DefaultTuning(), phasetune.DefaultOnline(), phasetune.DefaultPlacement()
		if sp.Tuning != nil {
			tcfg = *sp.Tuning
		}
		if sp.Online != nil {
			ocfg = *sp.Online
		}
		if sp.Placement != nil {
			pcfg = *sp.Placement
		}
		camp.Specs = append(camp.Specs, dist.Spec{
			Queues: *queues, DurationSec: sp.DurationSec, Mode: mode, Params: params,
			Tuning: tcfg, Online: ocfg, Placement: pcfg, TypingError: sp.TypingError, Seed: sp.Seed,
		})
	}
	return camp
}

// rollups folds the simulated-time counters of an op's results into s.
func rollups(s sample, r *opResult) {
	for _, name := range []string{"online.windows", "online.switches", "online.refreshes"} {
		s[name] = 0 // stays 0 when no run uses an online policy
	}
	var charged, cycles float64
	for _, rs := range r.results {
		for _, res := range rs {
			for _, t := range res.Tasks {
				s["osched.switches"] += float64(t.Migrations)
				s["tuning.marks_executed"] += float64(t.MarksExecuted)
				cycles += float64(t.Cycles)
			}
			s["osched.overcommit_slices"] += float64(res.OvercommitSlices)
			if pr := float64(res.PeakRunnable); pr > s["osched.peak_runnable"] {
				s["osched.peak_runnable"] = pr
			}
			s["online.counter_defers"] += float64(res.CounterDefers)
			if o := res.Online; o != nil {
				s["online.windows"] += float64(o.Windows)
				s["online.switches"] += float64(o.Switches)
				s["online.refreshes"] += float64(o.Refreshes)
				charged += float64(o.ChargedCycles)
			}
		}
	}
	s["online.monitor_frac"] = charged / cycles
}

// ledgerRollups verifies every run's cycle ledger and records each
// category's share of the op's total core time (cores × horizon).
func ledgerRollups(s sample, r *opResult) error {
	cats := phasetune.LedgerCategories()
	sums := make([]float64, len(cats))
	var total float64
	for _, rs := range r.results {
		for _, res := range rs {
			if res.Ledger == nil {
				return fmt.Errorf("ledgered run returned no ledger")
			}
			if err := res.Ledger.Verify(); err != nil {
				return err
			}
			for i, v := range res.Ledger.Total.Values() {
				sums[i] += float64(v)
			}
			total += float64(res.Ledger.Total.Total())
		}
	}
	for i, c := range cats {
		s["ledger."+ledgerName(c)] = sums[i] / total
	}
	return nil
}

// goMetrics are cumulative Go runtime counters.
type goMetrics struct{ allocBytes, gcCycles, gcCPU float64 }

func readGoMetrics() goMetrics {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(ss)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goMetrics{val(ss[0].Value), val(ss[1].Value), val(ss[2].Value)}
}
