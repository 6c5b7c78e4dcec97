package phasetune

import (
	"context"
	"fmt"

	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/perfcnt"
	"phasetune/internal/sim"
)

// Policy selects how a run places processes on the asymmetric cores — the
// axis of the paper's central comparison (§I, §V).
type Policy int

const (
	// PolicyDefault inherits the session's policy (or, when the session has
	// none, defers to the spec's legacy Mode field).
	PolicyDefault Policy = iota
	// PolicyNone runs unmodified binaries under the stock asymmetry-unaware
	// scheduler (the baseline).
	PolicyNone
	// PolicyStatic runs instrumented binaries with the paper's static phase
	// marks and the Algorithm 2 runtime.
	PolicyStatic
	// PolicyDynamic runs unmodified binaries under the online phase
	// detector: periodic counter sampling, window-signature classification,
	// and runtime reassignment (internal/online).
	PolicyDynamic
	// PolicyOracle runs instrumented binaries with perfect-knowledge
	// placement — zero monitoring, zero misprediction; the upper bound both
	// techniques chase.
	PolicyOracle
	// PolicyHybrid runs instrumented binaries under the marks+windows
	// hybrid: marks define phase boundaries, monitor windows keep the
	// per-phase IPC estimates fresh, and the shared placement engine
	// re-arbitrates at boundaries (the paper's §VI-B feedback mechanism
	// grown into a full policy).
	PolicyHybrid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyNone:
		return "none"
	case PolicyStatic:
		return "static"
	case PolicyDynamic:
		return "dynamic"
	case PolicyOracle:
		return "oracle"
	case PolicyHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name (as accepted by cmd/ampsim -policy).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "none", "baseline":
		return PolicyNone, nil
	case "static", "tuned":
		return PolicyStatic, nil
	case "dynamic", "online":
		return PolicyDynamic, nil
	case "oracle":
		return PolicyOracle, nil
	case "hybrid":
		return PolicyHybrid, nil
	}
	return PolicyDefault, fmt.Errorf("unknown policy %q (want none|static|dynamic|oracle|hybrid)", s)
}

// mode lowers a policy onto the simulator run mode.
func (p Policy) mode() RunMode {
	switch p {
	case PolicyStatic:
		return sim.Tuned
	case PolicyDynamic:
		return sim.Dynamic
	case PolicyOracle:
		return sim.Oracle
	case PolicyHybrid:
		return sim.Hybrid
	}
	return sim.Baseline
}

// Session is a configured simulation environment: machine, cost model,
// scheduler, typing and tuning defaults, a shared artifact cache, and a
// worker budget. Sessions are cheap to create, and one session can execute
// any number of runs and sweeps — every image prepared along the way lands
// in the session cache and is reused by later runs, so a 15-benchmark
// workload is instrumented once per technique across an entire campaign.
//
// A Session is safe for concurrent use.
type Session struct {
	machine   *Machine
	cost      CostModel
	sched     SchedulerConfig
	typing    TypingOptions
	tuning    TuningConfig
	online    OnlineConfig
	placement PlacementConfig
	policy    Policy
	workers   int
	events    Events
	tracer    *Tracer
	ledger    bool

	// host owns what every run of the session shares: the benchmark suite
	// (generated at the first run that draws from it), the artifact cache
	// and the cost-table store (nil under WithoutSegmentMemo).
	host *dist.Host
}

// Events holds optional per-run observation hooks (see sim.Events).
type Events = sim.Events

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithMachine sets the hardware (default: the paper's quad AMP).
func WithMachine(m *Machine) SessionOption { return func(s *Session) { s.machine = m } }

// WithCost sets the cost model (default: DefaultCost).
func WithCost(c CostModel) SessionOption { return func(s *Session) { s.cost = c } }

// WithScheduler sets the scheduler configuration (default: DefaultScheduler).
func WithScheduler(sc SchedulerConfig) SessionOption { return func(s *Session) { s.sched = sc } }

// WithOvercommit configures the scheduler's proportional-share overcommit
// dispatcher (off by default). Open-system serving runs (RunSpec.Arrivals)
// usually want it enabled so oversubscribed core types time-multiplex
// fractional shares instead of starving the run queue tail:
//
//	sess := phasetune.NewSession(
//	    phasetune.WithOvercommit(phasetune.OvercommitConfig{Enabled: true}),
//	)
func WithOvercommit(oc OvercommitConfig) SessionOption {
	return func(s *Session) { s.sched.Overcommit = oc }
}

// WithTyping sets the static typing options (default: DefaultTyping).
func WithTyping(t TypingOptions) SessionOption {
	return func(s *Session) { s.typing = t.Normalized() }
}

// WithTuning sets the default runtime tuning configuration (default:
// DefaultTuning). Individual runs may override it via RunSpec.Tuning.
func WithTuning(t TuningConfig) SessionOption { return func(s *Session) { s.tuning = t } }

// WithPolicy sets the session's default placement policy, used by every run
// whose spec leaves Policy at PolicyDefault. A spec's own Policy always
// wins; a spec that sets the legacy Mode field (non-Baseline) also wins.
func WithPolicy(p Policy) SessionOption { return func(s *Session) { s.policy = p } }

// WithOnline sets the default online-detector configuration used by
// PolicyDynamic and PolicyHybrid runs (default: DefaultOnline). Individual
// runs may override it via RunSpec.Online.
func WithOnline(c OnlineConfig) SessionOption { return func(s *Session) { s.online = c } }

// WithPlacement sets the default shared-placement-engine configuration —
// capacity spill band and hysteresis — used by every engine-backed run
// (PolicyDynamic, PolicyHybrid, and static runs with TuningConfig.Spill).
// Individual runs may override it via RunSpec.Placement.
func WithPlacement(c PlacementConfig) SessionOption { return func(s *Session) { s.placement = c } }

// WithCache shares an existing artifact cache (default: a fresh cache).
// Pass the same cache to several sessions to share prepared images across
// machines — images depend only on program content and the cost model.
func WithCache(c *ImageCache) SessionOption {
	return func(s *Session) { s.host = dist.NewHost(dist.EnvSpec{}, nil, c, s.host.Tables()) }
}

// WithoutSegmentMemo gives each of the session's runs private block cost
// tables instead of the session's shared store, so no table built by one
// run prices another. Results are byte-identical either way; the switch
// exists to A/B-test table sharing. The name predates the removal of the
// segment memo, whose place the shared tables took.
func WithoutSegmentMemo() SessionOption {
	return func(s *Session) { s.host = dist.NewHost(dist.EnvSpec{}, nil, s.host.Cache(), nil) }
}

// WithWorkers bounds the sweep worker pool (default: GOMAXPROCS).
func WithWorkers(n int) SessionOption { return func(s *Session) { s.workers = n } }

// WithEvents installs per-run progress hooks.
func WithEvents(e Events) SessionOption { return func(s *Session) { s.events = e } }

// WithTrace attaches a deterministic event tracer to the session's runs:
// scheduler bursts, placement decisions with their rationale, online
// window closes, mark boundaries, and per-task lifetime spans, stamped in
// simulated time. Tracing never perturbs a run — a traced run's Result is
// bit-identical to an untraced one. Export with Tracer.WriteFile
// (Chrome/Perfetto trace-event JSON) or Tracer.Summary (plain text).
//
// One tracer should observe one run at a time: concurrent sweep runs
// sharing a tracer interleave their events nondeterministically, so
// attach a tracer to sessions used for single Run calls.
func WithTrace(tr *Tracer) SessionOption { return func(s *Session) { s.tracer = tr } }

// WithLedger enables conserved cycle accounting on the session's runs: each
// RunResult carries a Ledger decomposing every simulated core-picosecond
// into useful work, asymmetry and spill loss, instrumentation taxes, and
// idle time, with per-core/per-task/per-phase rollups that sum exactly to
// cores × horizon (Ledger.Verify). Like tracing, accounting never perturbs
// a run — an accounted run's Result is bit-identical to an unaccounted one
// once the Ledger field is stripped.
func WithLedger() SessionOption { return func(s *Session) { s.ledger = true } }

// NewSession builds a session from functional options:
//
//	sess := phasetune.NewSession(
//	    phasetune.WithMachine(phasetune.QuadAMP()),
//	    phasetune.WithTuning(phasetune.DefaultTuning()),
//	)
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		machine:   QuadAMP(),
		cost:      DefaultCost(),
		sched:     DefaultScheduler(),
		typing:    DefaultTyping(),
		tuning:    DefaultTuning(),
		online:    DefaultOnline(),
		placement: DefaultPlacement(),
		host:      dist.NewHost(dist.EnvSpec{}, nil, NewImageCache(), exec.NewCostTables()),
	}
	for _, opt := range opts {
		opt(s)
	}
	// Options settle the cache and tables on an unbound host; bind them to
	// the environment the options settled on.
	s.host = dist.NewHost(s.env(), nil, s.host.Cache(), s.host.Tables())
	return s
}

// Cache returns the session's artifact cache (for stats or sharing).
func (s *Session) Cache() *ImageCache { return s.host.Cache() }

// CacheStats reports the session cache's hit/miss counters.
func (s *Session) CacheStats() CacheStats { return s.host.Cache().Stats() }

// MemoStats reports the session's shared cost-table store: tables built
// and lane lookup hits (see MemoStats). The zero value is returned under
// WithoutSegmentMemo.
func (s *Session) MemoStats() MemoStats { return s.host.Tables().Stats() }

// RunSpec configures one run within a session. Zero values inherit the
// session defaults; only what varies per run needs to be set.
type RunSpec struct {
	// Workload supplies the slot queues. Set at most one of Workload,
	// Queues and Arrivals; a spec that sets two is rejected.
	Workload *Workload
	// Queues describes the workload by its construction parameters
	// (slots, queue length, seed) instead of a built queue set; the
	// session builds it against its own suite. Queues-based specs are
	// serializable, which is what distributed sweeps (Serve, SweepSharded)
	// require.
	Queues *WorkloadSpec
	// Arrivals switches the run to the open-system serving form: instead of
	// constant-size slot queues, jobs from the serving fleet arrive under
	// the described process (Poisson, bursty, diurnal) and the run reports
	// per-job sojourn times. Mutually exclusive with Workload and Queues;
	// Seed drives both the arrival schedule and per-job process seeds.
	// Arrivals-based specs are serializable, so they shard (Serve,
	// SweepSharded) like Queues-based ones. Open systems usually want the
	// overcommit dispatcher on — see WithOvercommit.
	Arrivals *ArrivalSpec
	// DurationSec is the run length in simulated seconds. For arrivals
	// runs, keep it comfortably past ArrivalSpec.HorizonSec so admitted
	// jobs can drain.
	DurationSec float64
	// Policy selects the placement policy (none/static/dynamic/oracle/
	// hybrid). PolicyDefault inherits the session policy; when the session
	// has none either, the legacy Mode field decides.
	Policy Policy
	// Mode selects baseline/tuned/overhead (default Baseline). Ignored when
	// this spec or the session resolves to an explicit Policy.
	Mode RunMode
	// Params is the marking technique, used by instrumented runs (static
	// marks, overhead mode, oracle). Policy-selected runs with zero Params
	// default to BestParams.
	Params TechniqueParams
	// Tuning overrides the session tuning configuration when non-nil.
	Tuning *TuningConfig
	// Online overrides the session online-detector configuration when
	// non-nil (PolicyDynamic and PolicyHybrid runs).
	Online *OnlineConfig
	// Placement overrides the session placement-engine configuration when
	// non-nil (engine-backed runs: dynamic, hybrid, static with spill).
	Placement *PlacementConfig
	// TypingError injects clustering error (Fig. 7 methodology).
	TypingError float64
	// Seed drives workload process seeds and error injection.
	Seed uint64
}

// lower resolves a spec into its wire fields, the one place a RunSpec
// becomes run parameters: the spec's Policy wins, then an explicit legacy
// Mode, then the session policy, then legacy Baseline; nil overrides
// inherit the session defaults; and the workload travels as construction
// parameters (the zero Queues when the spec carries a built Workload or
// none). A spec that sets two workload forms is rejected.
func (s *Session) lower(spec RunSpec) (dist.Spec, error) {
	queues := spec.Queues
	if spec.Workload != nil && queues != nil {
		return dist.Spec{}, fmt.Errorf("phasetune: RunSpec.Workload and RunSpec.Queues are mutually exclusive")
	}
	if spec.Arrivals != nil {
		if spec.Workload != nil || queues != nil {
			return dist.Spec{}, fmt.Errorf("phasetune: RunSpec.Arrivals is mutually exclusive with Workload and Queues")
		}
		queues = &WorkloadSpec{Seed: spec.Seed, Arrivals: spec.Arrivals}
	}
	sp := dist.Spec{
		DurationSec: spec.DurationSec,
		Mode:        spec.Mode,
		Params:      spec.Params,
		Tuning:      s.tuning,
		Online:      s.online,
		Placement:   s.placement,
		TypingError: spec.TypingError,
		Seed:        spec.Seed,
	}
	if spec.Tuning != nil {
		sp.Tuning = *spec.Tuning
	}
	if spec.Online != nil {
		sp.Online = *spec.Online
	}
	if spec.Placement != nil {
		sp.Placement = *spec.Placement
	}
	policy := spec.Policy
	if policy == PolicyDefault && sp.Mode == Baseline {
		policy = s.policy
	}
	if policy != PolicyDefault {
		sp.Mode = policy.mode()
		if sp.Params == (TechniqueParams{}) && (policy == PolicyStatic || policy == PolicyOracle || policy == PolicyHybrid) {
			sp.Params = BestParams()
		}
	}
	if queues != nil {
		sp.Queues = *queues
	}
	return sp, nil
}

// env is the session environment in wire form. Local runs lower through
// it exactly as fabric workers do, so both build identical runs.
func (s *Session) env() dist.EnvSpec {
	return dist.EnvSpec{Version: dist.SpecVersion, Machine: *s.machine, Cost: s.cost,
		Sched: s.sched, Typing: s.typing, Ledger: s.ledger}
}

// Suite returns the benchmark suite for the session's cost model and
// machine, generated once per session and reused. Queues-based run specs
// build their workloads against it.
func (s *Session) Suite() ([]*Benchmark, error) { return s.host.Suite() }

// runConfig lowers a spec through the session host, which attaches the
// session's artifact cache and cost tables; the session's events and
// tracer are attached here.
func (s *Session) runConfig(spec RunSpec) (sim.RunConfig, error) {
	sp, err := s.lower(spec)
	if err != nil {
		return sim.RunConfig{}, err
	}
	cfg, err := s.host.RunConfig(sp)
	if err != nil {
		return sim.RunConfig{}, err
	}
	if spec.Workload != nil {
		// A built Workload replaces the empty one the zero Queues lowered to.
		cfg.Workload = spec.Workload
	}
	cfg.Events, cfg.Trace = s.events, s.tracer
	return cfg, nil
}

// RunContext executes one run with cancellation: the simulation polls ctx
// as it advances and returns ctx.Err() if it fires mid-run. Identical specs
// on identical sessions give bit-identical results, whether or not the
// session cache already holds the images.
func (s *Session) RunContext(ctx context.Context, spec RunSpec) (*RunResult, error) {
	cfg, err := s.runConfig(spec)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, cfg)
}

// Run is RunContext without cancellation.
func (s *Session) Run(spec RunSpec) (*RunResult, error) {
	return s.RunContext(context.Background(), spec)
}

// Instrument prepares one program's image under the session environment,
// through the session cache: Analyze followed by Analysis.Instrument, run
// once per distinct (program, technique) and served from the cache after.
func (s *Session) Instrument(p *Program, params TechniqueParams) (*Artifact, error) {
	return s.host.Cache().Get(p, ImageSpec{Params: params, Typing: s.typing}, s.cost)
}

// MeasureIPC runs the program to completion alone on each of the session
// machine's core types (the full share of that core's own L2 group, no
// instrumentation) and returns
// the measured IPC per type — the signal Algorithm 2 consumes. The image is
// prepared through the session cache; seed drives branch outcomes, so equal
// seeds give bit-identical measurements.
func (s *Session) MeasureIPC(p *Program, seed uint64) ([]float64, error) {
	art, err := s.host.Cache().Get(p, ImageSpec{Baseline: true}, s.cost)
	if err != nil {
		return nil, err
	}
	cost := s.cost
	pars := exec.ParamsFor(cost, s.machine)
	ipcs := make([]float64, len(pars))
	for t := range pars {
		coreID := 0
		if ids := s.machine.CoresOfType(pars[t].Type); len(ids) > 0 {
			coreID = ids[0]
		}
		l2KB := s.machine.L2s[s.machine.Cores[coreID].L2].SizeKB
		proc := exec.NewProcess(1, art.Image, &cost, seed, nil)
		es := perfcnt.Start(&proc.Counters)
		proc.RunIsolated(&pars[t], coreID, l2KB, 0)
		instrs, cycles := es.Stop(&proc.Counters)
		ipcs[t] = perfcnt.IPC(instrs, cycles)
	}
	return ipcs, nil
}
