// Command benchjson renders the repository's machine-readable measurement
// history (default BENCH_sweep.json), the append-only log that
// `cmd/experiments -benchout` writes data entries into (internal/benchhist).
//
// Usage:
//
//	benchjson [-out BENCH_sweep.json]
//
// The latest entry of each data kind renders as a chart:
//
//   - `breakdown` (`cmd/experiments -run breakdown -benchout`): one
//     misprediction-cost heatmap per machine;
//   - `serving` (`-run serving -benchout`): sojourn quantile strips per
//     machine and offered load;
//   - `ledger` (`-run showdown -ledger -benchout`): per-policy
//     cycle-attribution stacked bars;
//   - `contention` (`-run contention -benchout`): a shared-cache herding
//     table.
//
// Timing entries recorded by earlier builds stay in the file but are only
// counted: they are warm min-over-reps figures, and coldbench/ is the
// repository's performance harness. Entries of kinds this build does not
// know are called out by kind and count rather than silently skipped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"phasetune/internal/benchhist"
	"phasetune/internal/textplot"
)

func main() {
	out := flag.String("out", "BENCH_sweep.json", "history file to render")
	flag.Parse()
	if err := render(os.Stdout, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// render writes the history at path to w: an entry count, the timing and
// unknown-kind notes, then the latest entry of each data kind.
func render(w io.Writer, path string) error {
	hist := benchhist.Load(path)
	if len(hist.Entries) == 0 {
		return fmt.Errorf("%s holds no history entries", path)
	}
	timings := 0
	latest := map[string]*benchhist.Entry{}
	unknown := map[string]int{}
	for i := range hist.Entries {
		e := &hist.Entries[i]
		switch e.Kind {
		case benchhist.KindBench:
			timings++
		case benchhist.KindBreakdown, benchhist.KindServing, benchhist.KindLedger, benchhist.KindContention:
			latest[e.Kind] = e
		default:
			unknown[e.Kind]++
		}
	}
	fmt.Fprintf(w, "%s: %d entries, oldest first\n", path, len(hist.Entries))
	if timings > 0 {
		fmt.Fprintf(w, "note: %d timing entries (warm min-over-reps) are not charted; coldbench/ is the performance harness\n", timings)
	}
	kinds := make([]string, 0, len(unknown))
	for kind := range unknown {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(w, "note: %d entries of kind %q recorded by a newer producer — not charted by this build\n", unknown[kind], kind)
	}

	if e := latest[benchhist.KindBreakdown]; e != nil {
		renderBreakdown(w, e)
	}
	if e := latest[benchhist.KindServing]; e != nil {
		renderServing(w, e)
	}
	if e := latest[benchhist.KindLedger]; e != nil {
		renderLedger(w, e)
	}
	if e := latest[benchhist.KindContention]; e != nil {
		renderContention(w, e)
	}
	return nil
}

// renderBreakdown draws one dynamic−static delta heatmap per machine.
func renderBreakdown(w io.Writer, e *benchhist.Entry) {
	fmt.Fprintf(w, "\nmisprediction-cost breakdown (recorded %s): dynamic−static tput delta (pp)\n", e.Timestamp)
	for _, bd := range e.Breakdown {
		var cols []string
		for _, win := range bd.WindowInstrs {
			cols = append(cols, fmt.Sprintf("%d", win))
		}
		var rows []string
		for _, a := range bd.Alternations {
			rows = append(rows, fmt.Sprintf("alt.x%d", a))
		}
		fmt.Fprintf(w, "\n%s\n", bd.Machine)
		fmt.Fprint(w, textplot.Heatmap("rate\\win", rows, cols, bd.DeltaPct, bd.TolerancePct))
	}
}

// renderServing draws one sojourn quantile strip per machine and load.
func renderServing(w io.Writer, e *benchhist.Entry) {
	fmt.Fprintf(w, "\nopen-system serving (recorded %s): sojourn quantiles by load × policy\n", e.Timestamp)
	for _, sv := range e.Serving {
		for li, load := range sv.Loads {
			if li >= len(sv.P50Sec) {
				break
			}
			peak := 0
			if li < len(sv.PeakRunnable) {
				peak = sv.PeakRunnable[li]
			}
			fmt.Fprintf(w, "\n%s @ load %.2fx (peak runnable %d)\n", sv.Machine, load, peak)
			// The entry stores p50/p99/p999; reuse p99 for the strip's
			// p95 slot so the markers stay ordered.
			fmt.Fprint(w, textplot.QuantileStrip(sv.Policies,
				sv.P50Sec[li], sv.P99Sec[li], sv.P99Sec[li], sv.P999Sec[li], 48))
		}
	}
}

// renderLedger draws per-policy cycle-attribution stacked bars per machine.
func renderLedger(w io.Writer, e *benchhist.Entry) {
	fmt.Fprintf(w, "\ncycle attribution (recorded %s): %% of machine time by policy\n", e.Timestamp)
	segments := []string{"useful", "asymmetry", "spill", "overhead", "idle"}
	var machines []string
	seen := map[string]bool{}
	for _, r := range e.Ledger {
		if !seen[r.Machine] {
			seen[r.Machine] = true
			machines = append(machines, r.Machine)
		}
	}
	for _, machine := range machines {
		var names []string
		var vals [][]float64
		for _, r := range e.Ledger {
			if r.Machine != machine {
				continue
			}
			names = append(names, r.Policy)
			vals = append(vals, []float64{
				r.UsefulPct, r.AsymmetryPct, r.SpillPct, r.OverheadPct, r.IdlePct})
		}
		fmt.Fprintf(w, "\n%s\n", machine)
		fmt.Fprint(w, textplot.StackedBars(names, segments, vals, 48))
	}
}

// renderContention tabulates the hottest cache group's share per row.
func renderContention(w io.Writer, e *benchhist.Entry) {
	fmt.Fprintf(w, "\nshared-cache contention (recorded %s): hottest-group share of memory-bound time\n", e.Timestamp)
	t := textplot.NewTable("machine", "policy", "priced", "max-share", "groups", "tput%")
	for _, r := range e.Contention {
		priced := "-"
		if r.Priced {
			priced = "yes"
		}
		t.AddRow(r.Machine, r.Policy, priced,
			fmt.Sprintf("%.3f", r.MaxMemShare),
			fmt.Sprintf("%.1f", r.GroupsUsed),
			fmt.Sprintf("%+.2f", r.ThroughputPct))
	}
	fmt.Fprint(w, t.String())
}
