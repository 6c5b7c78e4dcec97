package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"phasetune"
	"phasetune/internal/dist"
	"phasetune/internal/sim"
)

// runOpts selects how an op executes. The zero value is the measured form:
// local sweeps with the segment memo on and no accounting.
type runOpts struct {
	workers int  // sweep workers per session
	sharded bool // Session.SweepSharded with `shards` workers
	memoOff bool // WithoutSegmentMemo
	ledger  bool // WithLedger
}

// opResult is what one op produced.
type opResult struct {
	wall, cpu time.Duration
	sessions  []*phasetune.Session     // one per group
	results   [][]*phasetune.RunResult // per group, in cell order
	cache     []phasetune.CacheStats   // per group, after the op
	memo      []phasetune.MemoStats    // per group, after the op
	goDelta   goMetrics                // Go runtime counters over the op
}

// sessionFor builds the fresh session one group of an op runs on.
func sessionFor(g group, o runOpts) *phasetune.Session {
	opts := []phasetune.SessionOption{phasetune.WithMachine(g.machine), phasetune.WithWorkers(o.workers)}
	if g.open {
		opts = append(opts, phasetune.WithOvercommit(phasetune.OvercommitConfig{Enabled: true}))
	}
	if o.memoOff {
		opts = append(opts, phasetune.WithoutSegmentMemo())
	}
	if o.ledger {
		opts = append(opts, phasetune.WithLedger())
	}
	return phasetune.NewSession(opts...)
}

func (g group) specs() []phasetune.RunSpec {
	specs := make([]phasetune.RunSpec, len(g.cells))
	for i, c := range g.cells {
		specs[i] = c.spec
	}
	return specs
}

// runOp executes one cold op: a fresh session per group, every cell swept
// through it. The timed region is everything from session construction to
// the last result; the heap is collected first so each op starts from the
// state a fresh process would.
func runOp(ctx context.Context, p plan, o runOpts) (*opResult, error) {
	runtime.GC()
	r := &opResult{}
	g0 := readGoMetrics()
	c0, t0 := cpuTime(), time.Now()
	for _, g := range p {
		sess := sessionFor(g, o)
		var res []*phasetune.RunResult
		var err error
		if o.sharded {
			res, err = sess.SweepSharded(ctx, g.specs(), shards)
		} else {
			res, err = sess.Sweep(ctx, g.specs())
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.machine.Name, err)
		}
		r.sessions = append(r.sessions, sess)
		r.results = append(r.results, res)
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-c0
	g1 := readGoMetrics()
	r.goDelta = goMetrics{g1.allocBytes - g0.allocBytes, g1.gcCycles - g0.gcCycles, g1.gcCPU - g0.gcCPU}
	for _, s := range r.sessions {
		r.cache = append(r.cache, s.CacheStats())
		r.memo = append(r.memo, s.MemoStats())
	}
	return r, nil
}

// instructions is the op's total simulated instruction count.
func (r *opResult) instructions() uint64 {
	var n uint64
	for _, rs := range r.results {
		for _, res := range rs {
			n += res.TotalInstructions
		}
	}
	return n
}

// checkBasic is the check every op gets: one result per cell, and every
// run committed instructions, all of them accounted to its jobs, with no
// job completing before it arrived. Closed runs are not required to
// complete a job: a 10 s run whose four slots all open with the suite's
// 40-300 s benchmarks legitimately completes none.
func checkBasic(p plan, r *opResult) error {
	for gi, g := range p {
		if len(r.results[gi]) != len(g.cells) {
			return fmt.Errorf("%s: %d results for %d specs", g.machine.Name, len(r.results[gi]), len(g.cells))
		}
		for ci, res := range r.results[gi] {
			var sum uint64
			for _, t := range res.Tasks {
				sum += t.Instructions
				if t.Completed() && t.CompletionSec < t.ArrivalSec {
					return fmt.Errorf("%s spec %d: job %s completed at %g s, before its arrival at %g s",
						g.machine.Name, ci, t.Name, t.CompletionSec, t.ArrivalSec)
				}
			}
			if res.TotalInstructions == 0 || sum != res.TotalInstructions {
				return fmt.Errorf("%s spec %d: %d instructions committed, %d accounted to jobs",
					g.machine.Name, ci, res.TotalInstructions, sum)
			}
		}
	}
	return nil
}

// imageKey names one distinct static-pipeline product of an op: the program
// and the image spec the simulator requests for it.
type imageKey struct {
	prog string
	spec phasetune.ImageSpec
}

// lower resolves a spec's policy onto the run mode and technique a
// default Session runs it with: the spec's Policy wins over its Mode, and
// mark-driven policies without a technique get Loop[45].
func lower(spec phasetune.RunSpec) (phasetune.RunMode, phasetune.TechniqueParams) {
	mode, params := spec.Mode, spec.Params
	if spec.Policy == phasetune.PolicyDefault {
		return mode, params
	}
	mode = map[phasetune.Policy]phasetune.RunMode{
		phasetune.PolicyNone: sim.Baseline, phasetune.PolicyStatic: sim.Tuned,
		phasetune.PolicyDynamic: sim.Dynamic, phasetune.PolicyOracle: sim.Oracle,
		phasetune.PolicyHybrid: sim.Hybrid,
	}[spec.Policy]
	if params == (phasetune.TechniqueParams{}) && mode != sim.Baseline && mode != sim.Dynamic {
		params = phasetune.BestParams()
	}
	return mode, params
}

// imageSpecFor is the image spec the simulator asks the cache for when a
// default Session runs spec: uninstrumented for the stock scheduler and
// the online detector, the spec's technique for every mark-driven policy.
func imageSpecFor(spec phasetune.RunSpec) phasetune.ImageSpec {
	mode, params := lower(spec)
	if mode == sim.Baseline || mode == sim.Dynamic {
		return phasetune.ImageSpec{Baseline: true}
	}
	return phasetune.ImageSpec{Params: params, Typing: phasetune.DefaultTyping()}
}

// checkSingleflight pins the image cache's singleflight contract: each
// distinct (program, image spec) pair the op's runs need is prepared
// exactly once, so the session's misses equal the distinct-pair count.
func checkSingleflight(p plan, r *opResult) error {
	for gi, g := range p {
		suite, err := r.sessions[gi].Suite()
		if err != nil {
			return err
		}
		want := map[imageKey]bool{}
		for _, c := range g.cells {
			w, err := c.spec.Queues.Materialize(suite, phasetune.DefaultCost(), g.machine)
			if err != nil {
				return err
			}
			for _, slot := range w.Slots {
				for _, b := range slot {
					want[imageKey{b.Name(), imageSpecFor(c.spec)}] = true
				}
			}
		}
		if got := r.cache[gi].Misses; got != uint64(len(want)) {
			return fmt.Errorf("%s: %d cache misses, %d distinct (program, image spec) pairs", g.machine.Name, got, len(want))
		}
	}
	return nil
}

// checkServing checks every open-system run completed jobs, no more than
// it admitted, with sojourn p50 ≤ p99.
func checkServing(p plan, r *opResult) error {
	for gi, g := range p {
		for ci, res := range r.results[gi] {
			st := phasetune.SummarizeServing(res)
			if st.Completed == 0 || st.Completed > st.Admitted || !(st.P50 <= st.P99) {
				return fmt.Errorf("%s spec %d: done %d admitted %d p50 %g p99 %g",
					g.machine.Name, ci, st.Completed, st.Admitted, st.P50, st.P99)
			}
		}
	}
	return nil
}

// canonical is the fabric's canonical encoding of every result of an op,
// with any cycle ledger stripped (it is the only field accounting adds).
func canonical(r *opResult) ([][]byte, error) {
	var out [][]byte
	for _, rs := range r.results {
		for _, res := range rs {
			c := *res
			c.Ledger = nil
			raw, err := dist.EncodeResult(&c)
			if err != nil {
				return nil, err
			}
			out = append(out, raw)
		}
	}
	return out, nil
}

// sameResults reports the first result whose canonical bytes differ.
func sameResults(a, b *opResult) error {
	ca, err := canonical(a)
	if err != nil {
		return err
	}
	cb, err := canonical(b)
	if err != nil {
		return err
	}
	if len(ca) != len(cb) {
		return fmt.Errorf("%d results vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if !bytes.Equal(ca[i], cb[i]) {
			return fmt.Errorf("result %d differs in canonical bytes", i)
		}
	}
	return nil
}

// checkOp runs every check that applies to a measured op of w; the
// sharded workload's byte-identity check runs a local sweep of the same
// specs, outside the op's timed region.
func checkOp(ctx context.Context, w *workload, p plan, r *opResult, workers int) error {
	if err := checkBasic(p, r); err != nil {
		return err
	}
	if w.check != nil {
		if err := w.check(p, r); err != nil {
			return err
		}
	}
	if w.sharded {
		local, err := runOp(ctx, p, runOpts{workers: workers})
		if err != nil {
			return fmt.Errorf("local reference: %w", err)
		}
		if err := sameResults(r, local); err != nil {
			return fmt.Errorf("sharded vs local sweep: %w", err)
		}
	}
	return nil
}

// answer holds the simulated-time metrics of an op: exact for its seed.
type answer struct {
	tputRatio map[string][]float64 // policy -> throughput vs none, per (machine, seed)
	sojourns  []float64
	done, adm int
}

func newAnswer() *answer { return &answer{tputRatio: map[string][]float64{}} }

// add folds one op's results into the answer: throughput ratios from
// closed groups, sojourns and completion counts from open ones.
func (a *answer) add(p plan, r *opResult) {
	for gi, g := range p {
		rs := r.results[gi]
		if g.open {
			for _, res := range rs {
				st := phasetune.SummarizeServing(res)
				a.done += st.Completed
				a.adm += st.Admitted
				a.sojourns = append(a.sojourns, phasetune.SojournTimes(res.Tasks)...)
			}
			continue
		}
		none := map[uint64]float64{} // workload seed -> stock-scheduler throughput
		for ci, c := range g.cells {
			if c.policy == "none" {
				none[c.spec.Seed] = float64(rs[ci].TotalInstructions)
			}
		}
		for ci, c := range g.cells {
			if base := none[c.spec.Seed]; base > 0 && c.policy != "none" {
				a.tputRatio[c.policy] = append(a.tputRatio[c.policy], float64(rs[ci].TotalInstructions)/base)
			}
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
