package dist

import (
	"sync"
	"testing"

	"phasetune/internal/exec"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// drawnFrom reports whether every benchmark of w is a member (by pointer)
// of suite — the proof a workload was built against that suite generation.
func drawnFrom(w *workload.Workload, suite []*workload.Benchmark) bool {
	members := make(map[*workload.Benchmark]bool, len(suite))
	for _, b := range suite {
		members[b] = true
	}
	for _, slot := range w.Slots {
		for _, b := range slot {
			if !members[b] {
				return false
			}
		}
	}
	return true
}

// TestHostGeneratesSuiteOnce pins the host's suite rule for suite draws:
// concurrent lowerings share one generation, and later calls reuse it.
func TestHostGeneratesSuiteOnce(t *testing.T) {
	camp := testCampaign()
	host := NewHost(camp.Env, nil, sim.NewImageCache(), exec.NewCostTables())
	sp := camp.Specs[0]
	if !sp.Queues.DrawsSuite() {
		t.Fatal("test spec must draw from the suite")
	}

	const n = 4
	cfgs := make([]sim.RunConfig, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfgs[i], errs[i] = host.RunConfig(sp)
		}(i)
	}
	wg.Wait()

	suite, err := host.Suite()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := host.Suite()
	if len(suite) == 0 || &again[0] != &suite[0] {
		t.Fatal("Suite() regenerated the suite")
	}
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("lowering %d: %v", i, errs[i])
		}
		if !drawnFrom(cfgs[i].Workload, suite) {
			t.Errorf("lowering %d drew from a second suite generation", i)
		}
		if cfgs[i].Cache != host.Cache() || cfgs[i].Tables != host.Tables() {
			t.Errorf("lowering %d: host cache/tables not attached", i)
		}
	}
}

// TestHostSkipsSuiteForSyntheticSpecs pins that only suite draws pay for
// the suite: arrivals, alternation, fleet and zero-slot specs lower and
// leave it ungenerated.
func TestHostSkipsSuiteForSyntheticSpecs(t *testing.T) {
	env := testCampaign().Env
	for _, tc := range []struct {
		name   string
		queues workload.Spec
	}{
		{"arrivals", workload.Spec{Seed: 1, Arrivals: &workload.ArrivalSpec{
			Kind: workload.Poisson, RatePerSec: 1, HorizonSec: 1}}},
		{"alternation", workload.Spec{Slots: 2, QueueLen: 2, Seed: 1, Alternations: 64}},
		{"fleet", workload.Spec{Slots: 2, QueueLen: 2, Seed: 1, Fleet: workload.FleetAntagonist}},
		{"zero slots", workload.Spec{}},
	} {
		host := NewHost(env, nil, nil, nil)
		if _, err := host.RunConfig(Spec{Queues: tc.queues, DurationSec: 1, Mode: sim.Baseline}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if host.suite != nil {
			t.Errorf("%s: lowering generated the suite", tc.name)
		}
	}
}

// TestHostKeepsGivenSuite pins that a host built with a suite lowers
// suite draws against it and never generates its own.
func TestHostKeepsGivenSuite(t *testing.T) {
	camp := testCampaign()
	m := camp.Env.Machine
	given, err := workload.Suite(camp.Env.Cost, &m)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(camp.Env, given, nil, nil)
	cfg, err := host.RunConfig(camp.Specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !drawnFrom(cfg.Workload, given) {
		t.Error("suite draw did not use the given suite")
	}
	got, err := host.Suite()
	if err != nil || &got[0] != &given[0] {
		t.Errorf("Suite() = %p, %v; want the given suite %p", got, err, given)
	}
}
