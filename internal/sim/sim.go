// Package sim glues the whole stack together: it takes a benchmark suite, a
// machine, and a technique configuration, prepares program images (static
// analysis -> transition marking -> instrumentation), runs workloads under
// the simulated OS, and collects the statistics the experiments report.
//
// A Run is a pure function of its RunConfig: identical configurations give
// bit-identical results, which the comparison protocol depends on (baseline
// and tuned runs share workload queues and per-process branch seeds, as in
// the paper §IV-A2).
package sim

import (
	"context"
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/ledger"
	"phasetune/internal/metrics"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/rng"
	"phasetune/internal/trace"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// Mode selects how processes run.
type Mode int

const (
	// Baseline runs uninstrumented programs under the stock scheduler.
	Baseline Mode = iota
	// Tuned runs instrumented programs with the tuning runtime.
	Tuned
	// Overhead runs instrumented programs in all-cores mode (paper's time
	// overhead methodology, §IV-B2).
	Overhead
	// Dynamic runs uninstrumented programs under the online phase detector
	// (internal/online): periodic counter sampling, window classification,
	// and runtime reassignment — the mark-free competitor of §V.
	Dynamic
	// Oracle runs instrumented programs with perfect-knowledge placement:
	// every mark resolves to the statically computed Algorithm 2 choice with
	// zero monitoring. The upper bound of the static-vs-dynamic showdown.
	Oracle
	// Hybrid runs instrumented programs under the marks+windows hybrid
	// runtime (online.Hybrid): marks define phase boundaries, monitor
	// windows refresh the per-phase IPC estimates, and the shared placement
	// engine re-arbitrates at boundaries — the paper's §VI-B feedback
	// mechanism grown into a full policy.
	Hybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Tuned:
		return "tuned"
	case Overhead:
		return "overhead"
	case Dynamic:
		return "dynamic"
	case Oracle:
		return "oracle"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// RunConfig configures one simulation run.
type RunConfig struct {
	// Machine is the hardware; nil defaults to the paper's quad.
	Machine *amp.Machine
	// Cost is the shared cost model; zero value defaults.
	Cost *exec.CostModel
	// Sched configures the scheduler; nil defaults.
	Sched *osched.Config
	// Workload supplies the slot queues (closed-system runs). Exactly one
	// of Workload and Stream must be set.
	Workload *workload.Workload
	// Stream supplies an open-system arrival schedule instead of slot
	// queues: jobs from the serving fleet are admitted at their arrival
	// times via kernel timers, and each job's sojourn time is its
	// admission-to-completion interval. Open runs usually enable
	// Sched.Overcommit so demand beyond core supply time-multiplexes
	// fairly.
	Stream *workload.Stream
	// DurationSec is the experiment length in simulated seconds.
	DurationSec float64
	// Mode selects baseline/tuned/overhead.
	Mode Mode
	// Params is the marking technique (used when Mode != Baseline).
	Params transition.Params
	// Tuning configures the runtime (used when Mode == Tuned; Overhead
	// forces all-cores mode). Oracle mode reads only Tuning.Delta.
	Tuning tuning.Config
	// Online configures the dynamic detector (used when Mode == Dynamic or
	// Hybrid; zero fields take online.DefaultConfig values).
	Online online.Config
	// Placement parameterizes the shared placement engine's capacity
	// arbitration (spill band, hysteresis) for every engine-backed mode:
	// Dynamic, Hybrid, and Tuned with Tuning.Spill. Zero fields take
	// place.DefaultConfig values.
	Placement place.Config
	// TypingOpts configures static block typing.
	TypingOpts phase.Options
	// TypingError injects clustering error (Fig. 7); fraction in [0,1].
	TypingError float64
	// Seed drives workload process seeds and error injection.
	Seed uint64
	// Cache, when set, serves prepared images from the shared artifact
	// cache instead of re-running the static pipeline per run.
	Cache *ImageCache
	// Memo, when set, caches segment outcomes across runs so repeated
	// executions replay in O(1) (exec.SegmentMemo). Memoization is
	// invisible: a memoized run's Result is byte-identical to an
	// unmemoized one. Like Trace it is process-local and never crosses
	// the dist wire — workers attach their own memo.
	Memo *exec.SegmentMemo
	// Events, when set, receives per-run progress callbacks.
	Events Events
	// Trace, when set, records the run's event timeline (scheduler bursts,
	// placement decisions, online windows, mark boundaries, task spans).
	// Tracing never perturbs the simulation: a traced run's Result is
	// bit-identical to an untraced one. The tracer is not part of the dist
	// wire format; one tracer should observe one run at a time (concurrent
	// sweep runs sharing a tracer interleave nondeterministically).
	Trace *trace.Tracer
	// Ledger enables conserved cycle accounting: the run's Result carries a
	// Ledger decomposing every simulated core-picosecond into exhaustive
	// categories (Σ categories == cores × horizon, exact). Like tracing it
	// never perturbs the simulation: a ledgered run's Result is
	// bit-identical to a ledger-off run once the Ledger field is stripped.
	// The flag (not a pointer) crosses the dist wire in the EnvSpec.
	Ledger bool
	// CacheStats enables the kernel's per-cache-group residency map
	// (osched.CacheStats): the run's Result reports how memory-bound
	// tasks' busy time distributed over shared-L2 groups — the observable
	// the contention experiments separate fleets by. Like Ledger it never
	// perturbs the simulation; a stats-off Result encodes byte-identically
	// to builds without the feature. Crosses the dist wire per-spec
	// (dist.Spec.CacheStats).
	CacheStats bool
}

// Events holds optional per-run observation hooks. Hooks are invoked
// synchronously from the executing run's goroutine; when one Events value
// is shared by concurrent runs (a sweep), hooks from different runs fire
// concurrently and must be safe for concurrent use.
type Events struct {
	// OnImage fires once per distinct benchmark after its image is ready.
	// cached reports whether the image came out of the artifact cache
	// without running the static pipeline.
	OnImage func(benchmark string, stats ImageStats, cached bool)
	// OnProgress fires at every throughput sampling event with the current
	// simulated time.
	OnProgress func(simulatedSec float64)
}

// Result is the outcome of a run.
type Result struct {
	// Tasks holds one record per spawned job, in spawn order.
	Tasks []metrics.TaskStat
	// Samples is the throughput time series.
	Samples []metrics.ThroughputSample
	// TotalInstructions is the cumulative committed instruction count.
	TotalInstructions uint64
	// CounterDefers counts monitoring requests that found no free event set.
	CounterDefers uint64
	// Online holds the monitoring statistics of the runtime-detection
	// modes (nil unless the run used Mode Dynamic or Hybrid).
	Online *online.Stats
	// Images reports per-benchmark instrumentation statistics.
	Images map[string]ImageStats
	// DurationSec echoes the configured duration.
	DurationSec float64
	// PeakRunnable is the maximum number of simultaneously live tasks the
	// run reached. Closed runs peak at the slot count; open-system runs
	// exceeding the core count demonstrably exercised overcommit.
	PeakRunnable int
	// OvercommitSlices counts dispatch slices the proportional-share
	// dispatcher shortened (zero unless Sched.Overcommit is enabled and
	// demand exceeded capacity).
	OvercommitSlices uint64
	// Ledger is the run's conserved cycle accounting (nil unless
	// RunConfig.Ledger was set). The omitempty tag keeps a ledger-off
	// Result's canonical encoding — the bytes the dist fabric commits —
	// byte-identical to pre-ledger builds.
	Ledger *ledger.Ledger `json:"ledger,omitempty"`
	// CacheStats is the per-cache-group residency map (nil unless
	// RunConfig.CacheStats was set). The omitempty tag keeps a stats-off
	// Result's canonical encoding byte-identical to earlier builds.
	CacheStats *osched.CacheStats `json:"cache_stats,omitempty"`
}

// ImageStats summarizes one prepared image.
type ImageStats struct {
	// Marks is the static mark count.
	Marks int
	// SpaceOverhead is the fractional size increase.
	SpaceOverhead float64
	// OrigBytes and NewBytes are encoded sizes.
	OrigBytes, NewBytes int
	// EffectiveK is the number of phase types after clustering.
	EffectiveK int
}

// HookFactory builds the mark hook installed on each spawned process.
type HookFactory func(k *osched.Kernel, img *exec.Image) exec.MarkHook

// wiring is the mode-dependent half of one kernel's run: which image each
// benchmark executes, the runtime that places it (static tuner, online
// monitor, hybrid, or oracle), and the mark hook each process gets.
// Workload runs and isolation runs both build theirs with newWiring, so a
// mode means the same thing in both.
type wiring struct {
	kernel *osched.Kernel
	// images is the preparation every benchmark of the run goes through.
	images ImageSpec
	// onImage runs the mode's per-image setup once per prepared image
	// (nil: none).
	onImage func(img *exec.Image) error
	// newHook builds one process's mark hook (nil: no hook).
	newHook func(img *exec.Image) exec.MarkHook
	// stats reports the online monitor's statistics (nil: no monitor).
	stats func() online.Stats
}

// newWiring builds the kernel cfg describes and wires the mode's runtime
// into it. A non-nil factory overrides the mode's hook choice.
func newWiring(cfg RunConfig, factory HookFactory) (*wiring, error) {
	if cfg.Mode < Baseline || cfg.Mode > Hybrid {
		// An unknown mode must fail loudly: it would otherwise fall through
		// every hook switch and run as a silent baseline — a spec from a
		// newer wire generation would commit wrong-but-plausible bytes.
		return nil, fmt.Errorf("sim: unknown run mode %d", int(cfg.Mode))
	}
	machine := cfg.Machine
	if machine == nil {
		machine = amp.Quad2Fast2Slow()
	}
	cost := exec.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	sched := osched.DefaultConfig()
	if cfg.Sched != nil {
		sched = *cfg.Sched
	}
	topts := cfg.TypingOpts.Normalized()
	pcfg := cfg.Placement.Normalized()
	onlCfg := cfg.Online.Normalized()
	if cfg.Mode == Dynamic || cfg.Mode == Hybrid {
		sched.MonitorIntervalSec = onlCfg.TickSec
	}
	kernel, err := osched.NewKernel(machine, cost, sched)
	if err != nil {
		return nil, err
	}
	kernel.Trace = cfg.Trace
	wr := &wiring{kernel: kernel, images: ImageSpec{
		// Dynamic runs execute unmodified binaries — that is the point of
		// the online competitor.
		Baseline: cfg.Mode == Baseline || cfg.Mode == Dynamic,
		Params:   cfg.Params, Typing: topts,
		ErrFrac: cfg.TypingError, ErrSeed: cfg.Seed ^ 0x5eed,
	}}

	switch cfg.Mode {
	case Tuned, Overhead:
		tcfg := cfg.Tuning
		tcfg.Mode = tuning.ModeTune
		// Capacity-aware static runs share one placement engine across
		// every tuner of the kernel — spill arbitration needs the
		// machine-wide view.
		var spill *place.Engine
		if cfg.Mode == Overhead {
			tcfg.Mode = tuning.ModeAllCores
		} else if tcfg.Spill {
			spill = place.NewEngine(machine, tcfg.Delta, pcfg)
			spill.SetTracer(cfg.Trace)
		}
		wr.newHook = func(img *exec.Image) exec.MarkHook {
			t := tuning.NewTuner(tcfg, machine, kernel.Hardware, img)
			if spill != nil {
				t.SetEngine(spill)
			}
			t.SetTracer(cfg.Trace)
			return t
		}
	case Dynamic:
		monitor := online.NewManager(onlCfg, pcfg, machine, kernel.Hardware)
		monitor.SetTracer(cfg.Trace)
		kernel.Monitor = monitor
		wr.stats = monitor.Stats
	case Hybrid:
		hybrid := online.NewHybrid(onlCfg, pcfg, machine, kernel.Hardware)
		hybrid.SetTracer(cfg.Trace)
		kernel.Monitor = hybrid
		wr.stats = hybrid.Stats
		wr.newHook = hybrid.Hook
	case Oracle:
		// The oracle is perfect knowledge by definition: injected clustering
		// error never reaches its images (OracleAssignments re-derives clean
		// typing and requires the mark types to match it).
		wr.images.ErrFrac = 0
		if pcfg.Contention == nil {
			masks := map[*exec.Image]map[phase.Type]uint64{}
			wr.onImage = func(img *exec.Image) (err error) {
				masks[img], err = online.OracleAssignments(img, topts, cost, machine, cfg.Tuning.Delta)
				return err
			}
			wr.newHook = func(img *exec.Image) exec.MarkHook { return online.NewOracleHook(img, masks[img]) }
			break
		}
		// Contention-priced oracle runs register claims on one run-wide
		// engine (built from the same normalized placement config every
		// other engine-backed mode uses); the plain mask path above stays
		// untouched — and byte-identical — when pricing is off.
		eng := place.NewEngine(machine, cfg.Tuning.Delta, pcfg)
		eng.SetTracer(cfg.Trace)
		decs := map[*exec.Image]map[phase.Type]place.Decision{}
		wr.onImage = func(img *exec.Image) (err error) {
			decs[img], err = online.OracleDecisions(eng, img, topts, cost, machine)
			return err
		}
		wr.newHook = func(img *exec.Image) exec.MarkHook { return online.NewOracleEngineHook(eng, img, decs[img]) }
	}
	if factory != nil {
		wr.newHook = func(img *exec.Image) exec.MarkHook { return factory(kernel, img) }
	}
	return wr, nil
}

// prepare resolves one benchmark's image through the cache (directly when
// cache is nil) and runs the mode's per-image setup. cached reports
// whether the cache served the image without running the static pipeline.
func (wr *wiring) prepare(cache *ImageCache, b *workload.Benchmark) (art *Artifact, cached bool, err error) {
	art, cached, err = prepare(cache, b.Prog, wr.images, wr.kernel.Cost)
	if err == nil && wr.onImage != nil {
		err = wr.onImage(art.Image)
	}
	return art, cached, err
}

// hook builds a new process's mark hook. With a tracer attached, the hook
// is wrapped so mark boundaries emit instants before delegating.
func (wr *wiring) hook(img *exec.Image) exec.MarkHook {
	if wr.newHook == nil {
		return nil
	}
	return traceMarkHook(wr.kernel.Trace, wr.newHook(img))
}

// Run executes one full workload simulation.
func Run(cfg RunConfig) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation polls ctx while it
// advances and returns ctx.Err() if it fires mid-run.
func RunContext(ctx context.Context, cfg RunConfig) (*Result, error) {
	return RunWithHookContext(ctx, cfg, nil)
}

// RunWithHookContext is RunContext with a custom per-process hook factory.
// When factory is nil, the mode picks the hook: the tuning runtime for
// Tuned and Overhead, the hybrid's mark hook, the oracle's, or none. A
// non-nil factory overrides the hook choice (used by the
// temporal-adaptation baseline from the related-work ablation).
func RunWithHookContext(ctx context.Context, cfg RunConfig, factory HookFactory) (*Result, error) {
	closed := cfg.Workload != nil && cfg.Workload.NumSlots() > 0
	open := cfg.Stream != nil
	switch {
	case closed && open:
		return nil, fmt.Errorf("sim: set exactly one of Workload and Stream, not both")
	case open && len(cfg.Stream.Arrivals) == 0:
		return nil, fmt.Errorf("sim: empty arrival stream")
	case !closed && !open:
		return nil, fmt.Errorf("sim: empty workload")
	}
	wr, err := newWiring(cfg, factory)
	if err != nil {
		return nil, err
	}
	kernel := wr.kernel

	// Prepare one image per distinct benchmark. With a cache, preparation
	// is a lookup after the first run that needs the same artifact.
	images := map[*workload.Benchmark]*exec.Image{}
	res := &Result{Images: map[string]ImageStats{}, DurationSec: cfg.DurationSec}
	benchGroups := [][]*workload.Benchmark{}
	if closed {
		benchGroups = cfg.Workload.Slots
	} else {
		benchGroups = append(benchGroups, cfg.Stream.Fleet)
	}
	for _, slot := range benchGroups {
		for _, b := range slot {
			if _, ok := images[b]; ok {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			art, cached, err := wr.prepare(cfg.Cache, b)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: %w", b.Name(), err)
			}
			images[b] = art.Image
			res.Images[b.Name()] = art.Stats
			if cfg.Events.OnImage != nil {
				cfg.Events.OnImage(b.Name(), art.Stats, cached)
			}
		}
	}

	kernel.Memo = cfg.Memo
	var col *ledger.Collector
	if cfg.Ledger {
		// Useful work is priced at the machine's fastest clock (smallest
		// per-cycle cost): the counterfactual of perfect placement.
		fastPs := kernel.Params()[0].PsPerCycle
		for _, p := range kernel.Params() {
			if p.PsPerCycle < fastPs {
				fastPs = p.PsPerCycle
			}
		}
		col = ledger.NewCollector(len(kernel.Machine.Cores), fastPs)
		kernel.Ledger = col
	}
	if cfg.CacheStats {
		kernel.EnableCacheStats()
	}
	if cfg.Events.OnProgress != nil {
		onProgress := cfg.Events.OnProgress
		kernel.OnSample = func(k *osched.Kernel, atPs int64) {
			onProgress(osched.PsToSec(atPs))
		}
	}

	// The closed slot driver and the open arrival driver build hooks
	// identically.
	if closed {
		// Per-slot queue positions; spawn the next job of a slot on
		// completion.
		positions := make([]int, cfg.Workload.NumSlots())
		seeds := rng.New(cfg.Seed)
		slotSeeds := make([]*rng.Source, cfg.Workload.NumSlots())
		for i := range slotSeeds {
			slotSeeds[i] = seeds.Split()
		}
		spawnNext := func(k *osched.Kernel, slot int) {
			q := cfg.Workload.Slots[slot]
			if positions[slot] >= len(q) {
				return // queue drained
			}
			b := q[positions[slot]]
			positions[slot]++
			img := images[b]
			p := exec.NewProcess(k.NextPID(), img, &kernel.Cost, slotSeeds[slot].Uint64(), wr.hook(img))
			k.Spawn(p, b.Name(), slot, 0)
		}
		kernel.OnExit = func(k *osched.Kernel, t *osched.Task) {
			if t.Slot >= 0 {
				spawnNext(k, t.Slot)
			}
		}
		for slot := range cfg.Workload.Slots {
			spawnNext(kernel, slot)
		}
	} else {
		// Open system: admit each arrival at its timestamp via a kernel
		// timer. Process seeds are drawn in arrival order from the run seed
		// and Slot records the arrival index, so compared policies run the
		// same jobs with the same branch seeds — the open-system analogue of
		// the paper's "the same queues were used for each experiment".
		seeds := rng.New(cfg.Seed)
		for i, a := range cfg.Stream.Arrivals {
			b := cfg.Stream.Fleet[a.Fleet]
			img := images[b]
			seed := seeds.Uint64()
			idx := i
			kernel.At(osched.SecToPs(a.AtSec), func(k *osched.Kernel) {
				if cfg.Trace != nil {
					cfg.Trace.Instant("sim", "admit", trace.PidMachine, trace.TidKernel, k.NowPs(),
						trace.Arg{Key: "arrival", Value: idx},
						trace.Arg{Key: "name", Value: b.Name()})
				}
				p := exec.NewProcess(k.NextPID(), img, &kernel.Cost, seed, wr.hook(img))
				k.Spawn(p, b.Name(), idx, 0)
			})
		}
	}

	if cfg.Trace != nil {
		cfg.Trace.Instant("sim", "run.start", trace.PidMachine, trace.TidKernel, kernel.NowPs(),
			trace.Arg{Key: "mode", Value: cfg.Mode.String()},
			trace.Arg{Key: "machine", Value: kernel.Machine.Name},
			trace.Arg{Key: "duration_sec", Value: cfg.DurationSec},
			trace.Arg{Key: "seed", Value: cfg.Seed})
	}
	if kernel.RunCancellable(cfg.DurationSec, func() bool { return ctx.Err() != nil }) {
		return nil, ctx.Err()
	}
	if cfg.Trace != nil {
		cfg.Trace.Instant("sim", "run.end", trace.PidMachine, trace.TidKernel, kernel.NowPs(),
			trace.Arg{Key: "tasks", Value: len(kernel.Tasks())},
			trace.Arg{Key: "instructions", Value: kernel.TotalInstructions()})
	}

	for _, t := range kernel.Tasks() {
		stat := metrics.TaskStat{
			Name:          t.Name,
			Slot:          t.Slot,
			ArrivalSec:    osched.PsToSec(t.ArrivalPs),
			CompletionSec: -1,
			Migrations:    t.Migrations,
			Instructions:  t.Proc.Counters.Instructions,
			Cycles:        t.Proc.Counters.Cycles,
			MarksExecuted: t.Proc.MarksExecuted,
			FinalAffinity: t.Affinity,
		}
		if t.State == osched.TaskExited {
			stat.CompletionSec = osched.PsToSec(t.CompletionPs)
		}
		if cfg.Trace != nil {
			// One lifetime span per task, emitted post-run so unfinished
			// tasks close at the horizon.
			endPs := t.CompletionPs
			done := t.State == osched.TaskExited
			if !done {
				endPs = kernel.NowPs()
			}
			cfg.Trace.Span("task", t.Name, trace.PidTasks, t.Proc.PID, t.ArrivalPs, endPs,
				trace.Arg{Key: "slot", Value: t.Slot},
				trace.Arg{Key: "migrations", Value: t.Migrations},
				trace.Arg{Key: "instructions", Value: t.Proc.Counters.Instructions},
				trace.Arg{Key: "done", Value: done})
		}
		res.Tasks = append(res.Tasks, stat)
	}
	for _, s := range kernel.Samples() {
		res.Samples = append(res.Samples, metrics.ThroughputSample{
			AtSec:        osched.PsToSec(s.AtPs),
			Instructions: s.Instructions,
		})
	}
	res.TotalInstructions = kernel.TotalInstructions()
	res.CounterDefers = kernel.Hardware.Defers()
	res.PeakRunnable = kernel.PeakLive()
	res.OvercommitSlices = kernel.OvercommitSlices()
	if wr.stats != nil {
		stats := wr.stats()
		res.Online = &stats
	}
	if col != nil {
		res.Ledger = col.Finalize(kernel.NowPs())
	}
	res.CacheStats = kernel.CacheStats()
	return res, nil
}

// IsolationResult is one benchmark's isolation run.
type IsolationResult struct {
	// RuntimeSec is the completion time running alone on the machine.
	RuntimeSec float64
	// Migrations counts core switches (Table 1's "Switches" column when run
	// tuned).
	Migrations int
	// Cycles and Instructions are final counters.
	Cycles, Instructions uint64
	// MarksExecuted counts dynamic mark executions.
	MarksExecuted uint64
}

// IsolationSpec configures an isolation campaign: every suite benchmark
// runs alone on the machine. Mode selects baseline (for the t_j reference
// times of max-stretch) or tuned (for Table 1 switch counts); every mode
// wires its runtime exactly as a workload run does.
type IsolationSpec struct {
	Suite   []*workload.Benchmark
	Machine *amp.Machine
	Cost    exec.CostModel
	Sched   osched.Config
	Mode    Mode
	Params  transition.Params
	Tuning  tuning.Config
	Typing  phase.Options
	Seed    uint64
	// Workers bounds concurrent isolation runs (<=1 means sequential).
	Workers int
	// Cache, when set, serves prepared images.
	Cache *ImageCache
}

// IsolationContext runs each benchmark alone on the machine, fanning the
// suite across spec.Workers goroutines, and returns per-name results.
// Results are independent of the worker count: each benchmark's run is a
// pure function of the spec.
func IsolationContext(ctx context.Context, spec IsolationSpec) (map[string]IsolationResult, error) {
	cfg := RunConfig{Machine: spec.Machine, Cost: &spec.Cost, Sched: &spec.Sched,
		Mode: spec.Mode, Params: spec.Params, Tuning: spec.Tuning, TypingOpts: spec.Typing}
	results := make([]IsolationResult, len(spec.Suite))
	err := ForEach(ctx, len(spec.Suite), spec.Workers, func(i int) error {
		b := spec.Suite[i]
		wr, err := newWiring(cfg, nil)
		if err != nil {
			return err
		}
		art, _, err := wr.prepare(spec.Cache, b)
		if err != nil {
			return fmt.Errorf("sim: isolation %s: %w", b.Name(), err)
		}
		kernel := wr.kernel
		p := exec.NewProcess(kernel.NextPID(), art.Image, &kernel.Cost, spec.Seed^uint64(len(b.Name())), wr.hook(art.Image))
		task := kernel.Spawn(p, b.Name(), 0, 0)
		if err := kernel.RunUntilDone(1e6); err != nil {
			return fmt.Errorf("sim: isolation %s: %w", b.Name(), err)
		}
		results[i] = IsolationResult{
			RuntimeSec:    osched.PsToSec(task.CompletionPs - task.ArrivalPs),
			Migrations:    task.Migrations,
			Cycles:        p.Counters.Cycles,
			Instructions:  p.Counters.Instructions,
			MarksExecuted: p.MarksExecuted,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]IsolationResult, len(spec.Suite))
	for i, b := range spec.Suite {
		out[b.Name()] = results[i]
	}
	return out, nil
}
