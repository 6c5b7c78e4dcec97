package dist

import (
	"context"
	"fmt"
	"sync"

	"phasetune/internal/exec"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// Host runs wire specs in this process against one environment. It owns
// what every run of that environment shares: the benchmarks it generates
// (the suite and every synthetic fleet), the artifact cache and the block
// cost-table store. A fabric worker, a Session, sweepd's sequential
// verifier and the experiment drivers each hold one, so the rule for when
// a benchmark is generated and what a run carries lives here alone. None
// of these changes a result (DESIGN.md §13), so hosts of one environment
// produce byte-identical runs however warm they are. A Host is safe for
// concurrent use.
type Host struct {
	env    EnvSpec
	cache  *sim.ImageCache
	tables *exec.CostTables

	// benches memoizes generation: each BenchSpec the host's specs name
	// is generated at most once, so a campaign holds one program per
	// distinct spec however many runs draw it.
	mu      sync.Mutex
	benches map[workload.BenchSpec]*benchEntry

	suiteOnce sync.Once
	suite     []*workload.Benchmark
	suiteErr  error
}

// benchEntry is a singleflight slot of the host's benchmark memo: the
// first request generates, concurrent requests for the same spec wait on
// it and share the result or error.
type benchEntry struct {
	once  sync.Once
	bench *workload.Benchmark
	err   error
}

// NewHost builds a host for env. suite must be env's suite (workload.Suite
// of its cost and machine) or nil; a nil suite is generated once, at the
// first spec that draws from it, so serving, alternation and fleet runs
// never pay for it. A nil cache prepares every image afresh; nil tables
// give each run private cost tables.
func NewHost(env EnvSpec, suite []*workload.Benchmark, cache *sim.ImageCache, tables *exec.CostTables) *Host {
	h := &Host{env: env, cache: cache, tables: tables, benches: map[workload.BenchSpec]*benchEntry{}}
	if suite != nil {
		h.suiteOnce.Do(func() { h.suite = suite })
	}
	return h
}

// Suite returns the environment's benchmark suite, generating it through
// the host's memo on the first call when the host was built without one.
func (h *Host) Suite() ([]*workload.Benchmark, error) {
	h.suiteOnce.Do(func() {
		h.suite, h.suiteErr = workload.GenerateAll(workload.Specs(), h.generate)
	})
	return h.suite, h.suiteErr
}

// generate is the host's workload.Generator: it returns the environment's
// benchmark for spec, generating it at the first request. Generation is a
// pure function of (spec, cost, machine) and runs never modify a
// Benchmark, so every run that names spec can share one.
func (h *Host) generate(spec workload.BenchSpec) (*workload.Benchmark, error) {
	h.mu.Lock()
	e, ok := h.benches[spec]
	if !ok {
		e = &benchEntry{}
		h.benches[spec] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		m := h.env.Machine
		e.bench, e.err = workload.Generate(spec, h.env.Cost, &m)
	})
	return e.bench, e.err
}

// Cache returns the host's artifact cache (nil when it has none).
func (h *Host) Cache() *sim.ImageCache { return h.cache }

// Tables returns the host's cost-table store (nil when runs build their
// own).
func (h *Host) Tables() *exec.CostTables { return h.tables }

// RunConfig lowers a wire spec onto the host environment: the one place a
// Queues or Arrivals workload is materialized (its benchmarks drawn from
// the host's memo) and spec fields are copied into a sim.RunConfig. The
// machine, cost and scheduler are copied so the config is self-contained;
// the host's cache and tables are attached. Events and tracer are the
// caller's to set.
func (h *Host) RunConfig(sp Spec) (sim.RunConfig, error) {
	var suite []*workload.Benchmark
	if sp.Queues.DrawsSuite() {
		var err error
		if suite, err = h.Suite(); err != nil {
			return sim.RunConfig{}, fmt.Errorf("dist: rebuild suite: %w", err)
		}
	}
	m := h.env.Machine
	cost := h.env.Cost
	sched := h.env.Sched
	var w *workload.Workload
	var stream *workload.Stream
	var err error
	if sp.Queues.Arrivals != nil {
		stream, err = sp.Queues.MaterializeOpenWith(h.generate)
	} else {
		w, err = sp.Queues.MaterializeWith(suite, h.generate)
	}
	if err != nil {
		return sim.RunConfig{}, fmt.Errorf("dist: materialize workload: %w", err)
	}
	return sim.RunConfig{
		Machine: &m, Cost: &cost, Sched: &sched,
		Workload:    w,
		Stream:      stream,
		DurationSec: sp.DurationSec,
		Mode:        sp.Mode,
		Params:      sp.Params,
		Tuning:      sp.Tuning,
		Online:      sp.Online,
		Placement:   sp.Placement,
		TypingOpts:  h.env.Typing,
		TypingError: sp.TypingError,
		Seed:        sp.Seed,
		Cache:       h.cache,
		Tables:      h.tables,
		Ledger:      h.env.Ledger,
		CacheStats:  sp.CacheStats,
	}, nil
}

// Run executes one wire spec, polling ctx as the simulation advances.
func (h *Host) Run(ctx context.Context, sp Spec) (*sim.Result, error) {
	cfg, err := h.RunConfig(sp)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, cfg)
}
