package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"phasetune/internal/benchhist"
)

// fixtureHistory holds one timing entry, one entry of each data kind and
// one entry of a kind this build does not know.
func fixtureHistory() benchhist.History {
	return benchhist.History{Schema: benchhist.HistorySchema, Entries: []benchhist.Entry{
		{Kind: benchhist.KindBench, Benchmarks: []benchhist.Benchmark{{Name: "grid_sweep", NsPerOp: 1400000, Reps: 3}}},
		{Kind: benchhist.KindBreakdown, Breakdown: []benchhist.Breakdown{{
			Machine: "quad", Alternations: []int{8, 512}, Rates: []float64{1, 64},
			WindowInstrs: []uint64{4000, 16000},
			DeltaPct:     [][]float64{{1.5, -0.5}, {-3, -6}}, TolerancePct: 1,
		}}},
		{Kind: benchhist.KindServing, Serving: []benchhist.Serving{{
			Machine: "quad", Loads: []float64{0.75}, Policies: []string{"none", "static"},
			P50Sec: [][]float64{{0.2, 0.1}}, P99Sec: [][]float64{{0.9, 0.5}},
			P999Sec: [][]float64{{1.2, benchhist.NoData}}, PeakRunnable: []int{7},
		}}},
		{Kind: benchhist.KindLedger, Ledger: []benchhist.LedgerRow{
			{Machine: "quad", Policy: "none", UsefulPct: 70, AsymmetryPct: 10, SpillPct: 5, OverheadPct: 5, IdlePct: 10},
			{Machine: "hex", Policy: "hybrid", UsefulPct: 80, AsymmetryPct: 5, OverheadPct: 5, IdlePct: 10},
		}},
		{Kind: benchhist.KindContention, Contention: []benchhist.ContentionRow{
			{Machine: "hex", Policy: "oracle", MaxMemShare: 0.95, GroupsUsed: 1, ThroughputPct: -60},
			{Machine: "hex", Policy: "oracle", Priced: true, MaxMemShare: 0.5, GroupsUsed: 2.5, ThroughputPct: -22.8},
		}},
		{Kind: "future", Timestamp: "2030-01-01T00:00:00Z"},
	}}
}

func TestRenderEveryKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := benchhist.Save(path, fixtureHistory()); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := render(&out, path); err != nil {
		t.Fatalf("render: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"6 entries",
		"note: 1 timing entries (warm min-over-reps) are not charted",
		`note: 1 entries of kind "future" recorded by a newer producer`,
		"misprediction-cost breakdown",
		"open-system serving",
		"quad @ load 0.75x (peak runnable 7)",
		"cycle attribution",
		"legend:",
		"shared-cache contention",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "grid_sweep") {
		t.Errorf("timing entry was charted:\n%s", got)
	}
}

func TestRenderEmptyHistoryFails(t *testing.T) {
	if err := render(&bytes.Buffer{}, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("render of a missing history returned nil error")
	}
}
