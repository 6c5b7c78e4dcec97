// Package benchhist is the schema and I/O for the repository's
// machine-readable measurement history (BENCH_sweep.json). The file is an
// append-only log: every producer — cmd/experiments' breakdown, serving,
// ledger and contention summaries, and benchmark timings recorded by
// earlier builds — appends one typed entry per invocation, and
// cmd/benchjson renders the accumulated history. Keeping the schema here, instead of private to one command,
// is what lets several producers share one history without drifting.
package benchhist

import (
	"encoding/json"
	"math"
	"os"
)

// Schema identifiers of the on-disk formats.
const (
	// HistorySchema identifies the append-only history file.
	HistorySchema = "phasetune-bench-history/v1"
	// LegacySchema identifies the pre-history single-report file, absorbed
	// as the first entry on load.
	LegacySchema = "phasetune-bench/v1"
)

// Entry kinds. An empty Kind means benchmark timings (the original entry
// form, kept unnamed for backward compatibility with recorded histories).
const (
	// KindBench marks a benchmark-timing entry ("" on the wire).
	KindBench = ""
	// KindBreakdown marks a misprediction-cost breakdown-map entry.
	KindBreakdown = "breakdown"
	// KindServing marks an open-system serving latency entry.
	KindServing = "serving"
	// KindLedger marks a cycle-attribution entry.
	KindLedger = "ledger"
	// KindContention marks a shared-cache contention (antagonist herding)
	// entry.
	KindContention = "contention"
)

// Benchmark is one recorded timing measurement.
type Benchmark struct {
	Name    string             `json:"name"`
	NsPerOp int64              `json:"ns_per_op"`
	Reps    int                `json:"reps"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Breakdown is one machine's misprediction-cost map summary: the
// dynamic-vs-static throughput delta over the (alternation rate × window)
// grid plus the break-even frontier (experiments.Breakdown).
type Breakdown struct {
	// Machine is the machine name.
	Machine string `json:"machine"`
	// Alternations and Rates are the rate axis (per billion instructions).
	Alternations []int     `json:"alternations"`
	Rates        []float64 `json:"rates_per_b_instr"`
	// WindowInstrs is the window axis.
	WindowInstrs []uint64 `json:"window_instrs"`
	// DeltaPct is dynamic−static throughput delta in percentage points,
	// indexed [rate][window].
	DeltaPct [][]float64 `json:"delta_pct"`
	// BreakEvenWindow is, per rate, the largest window where dynamic still
	// held within the tolerance (0 = dynamic fell past it everywhere).
	BreakEvenWindow []uint64 `json:"break_even_window"`
	// TolerancePct is the break-even tolerance the frontier was cut with,
	// in throughput percentage points.
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
}

// NoData marks a latency cell with no completed jobs in recorded quantile
// matrices. The in-memory convention for an empty completed set is NaN
// (metrics.Quantile, serve.Summarize), but JSON cannot carry NaN —
// json.Marshal rejects it — so producers rewrite NaN cells through
// SanitizeNaNs before appending. Consumers must treat negative latencies
// as absent data, not as measurements.
const NoData = -1

// SanitizeNaNs returns a copy of vs with every NaN replaced by NoData,
// making a quantile row safe to marshal. A nil slice stays nil.
func SanitizeNaNs(vs []float64) []float64 {
	if vs == nil {
		return nil
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		if math.IsNaN(v) {
			out[i] = NoData
		} else {
			out[i] = v
		}
	}
	return out
}

// Serving is one machine's open-system latency summary: exact sojourn
// quantiles over the (offered load × placement policy) grid
// (experiments.Serving). Latency entries are data, not timings.
type Serving struct {
	// Machine is the machine name.
	Machine string `json:"machine"`
	// Loads is the offered-load axis in multiples of machine capacity.
	Loads []float64 `json:"loads"`
	// Policies is the placement-policy axis, in column order.
	Policies []string `json:"policies"`
	// P50Sec, P99Sec, and P999Sec are sojourn-time quantiles in seconds,
	// indexed [load][policy].
	P50Sec  [][]float64 `json:"p50_sec"`
	P99Sec  [][]float64 `json:"p99_sec"`
	P999Sec [][]float64 `json:"p999_sec"`
	// PeakRunnable is the maximum simultaneously live task count per load
	// (max across policies and seeds) — the overcommit evidence.
	PeakRunnable []int `json:"peak_runnable"`
}

// LedgerRow is one (machine, policy) cycle-attribution rollup recorded by
// `cmd/experiments -run showdown -ledger -benchout`: the showdown cell's
// total machine time (cores × horizon) decomposed in percent, averaged
// over the campaign seeds. The five columns sum to 100 up to rounding, so
// history renderers can draw each row as one stacked bar.
type LedgerRow struct {
	// Machine is the machine name.
	Machine string `json:"machine"`
	// Policy is the placement-policy column name.
	Policy string `json:"policy"`
	// UsefulPct is work at the machine's fastest clock.
	UsefulPct float64 `json:"useful_pct"`
	// AsymmetryPct is loss to mispredicted slow-core placement.
	AsymmetryPct float64 `json:"asymmetry_pct"`
	// SpillPct is loss while knowingly spilled by capacity arbitration.
	SpillPct float64 `json:"spill_pct"`
	// OverheadPct sums the instrumentation taxes: marks, monitoring,
	// migration, context switch, overcommit slicing.
	OverheadPct float64 `json:"overhead_pct"`
	// IdlePct is unclaimed core time.
	IdlePct float64 `json:"idle_pct"`
}

// ContentionRow is one (machine, policy, priced) cell of the shared-cache
// herding campaign recorded by `cmd/experiments -run contention -benchout`
// (experiments.Contention). Contention rows are data, not timings.
type ContentionRow struct {
	// Machine is the machine name.
	Machine string `json:"machine"`
	// Policy is the placement-policy column name.
	Policy string `json:"policy"`
	// Priced reports whether the engine ran contention-priced.
	Priced bool `json:"priced"`
	// Throughput is mean committed instructions per second.
	Throughput float64 `json:"throughput"`
	// ThroughputPct is the improvement over the machine's unpriced stock
	// row, in percent.
	ThroughputPct float64 `json:"throughput_pct"`
	// MemShare is the per-cache-group share of memory-bound core time in
	// machine group order (Σ = 1 when any antagonist ran).
	MemShare []float64 `json:"mem_share"`
	// MaxMemShare is the hottest group's share — the herding signature
	// (1.0 = fully herded, 1/groups = perfect spread).
	MaxMemShare float64 `json:"max_mem_share"`
	// GroupsUsed is the mean number of cache groups hosting memory-bound
	// time.
	GroupsUsed float64 `json:"groups_used"`
	// MemTasks is the mean number of tasks classified memory-bound.
	MemTasks float64 `json:"mem_tasks"`
}

// Entry is one producer invocation.
type Entry struct {
	Schema string `json:"schema,omitempty"`
	// Kind discriminates the payload: "" = benchmark timings (Benchmarks,
	// Derived), "breakdown" = breakdown maps (Breakdown), "serving" =
	// serving latency summaries (Serving), "ledger" = cycle-attribution
	// rollups (Ledger), "contention" = shared-cache herding rows
	// (Contention). Consumers must treat unknown kinds as data to be
	// surfaced, not silently dropped.
	Kind       string             `json:"kind,omitempty"`
	Timestamp  string             `json:"timestamp,omitempty"`
	GoVersion  string             `json:"go_version,omitempty"`
	MaxProcs   int                `json:"gomaxprocs,omitempty"`
	Shards     int                `json:"shards,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks,omitempty"`
	Derived    map[string]float64 `json:"derived,omitempty"`
	Breakdown  []Breakdown        `json:"breakdown,omitempty"`
	Serving    []Serving          `json:"serving,omitempty"`
	Ledger     []LedgerRow        `json:"ledger,omitempty"`
	Contention []ContentionRow    `json:"contention,omitempty"`
}

// History is the file format: one entry per invocation, oldest first.
type History struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Load reads a history file, absorbing a legacy single-report file as the
// first entry. Unreadable or unrecognized content starts a fresh history —
// the file is a derived artifact, never a source of truth.
func Load(path string) History {
	h := History{Schema: HistorySchema}
	data, err := os.ReadFile(path)
	if err != nil {
		return h
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(data, &probe) != nil {
		return h
	}
	switch probe.Schema {
	case HistorySchema:
		var old History
		if json.Unmarshal(data, &old) == nil {
			h.Entries = old.Entries
		}
	case LegacySchema:
		var legacy Entry
		if json.Unmarshal(data, &legacy) == nil {
			legacy.Schema = LegacySchema
			h.Entries = []Entry{legacy}
		}
	}
	return h
}

// Append loads path, appends the entry, and writes the history back.
func Append(path string, e Entry) error {
	h := Load(path)
	h.Entries = append(h.Entries, e)
	return Save(path, h)
}

// Save writes the history to path.
func Save(path string, h History) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
