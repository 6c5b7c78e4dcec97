package dist

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"phasetune/internal/exec"
	"phasetune/internal/online"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
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

// memoized returns the specs the host has generated (or is generating).
func memoized(h *Host) map[workload.BenchSpec]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[workload.BenchSpec]bool, len(h.benches))
	for s := range h.benches {
		out[s] = true
	}
	return out
}

// fleetCampaign is a mixed synthetic campaign on the quad with an
// overcommit scheduler: serving specs at two seeds, alternation specs at
// two rates, and the antagonist fleet, each under a different policy.
func fleetCampaign() Campaign {
	env := testCampaign().Env
	env.Sched.Overcommit.Enabled = true
	loop45 := transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true}
	serving := func(seed uint64) workload.Spec {
		return workload.Spec{Seed: seed, Arrivals: &workload.ArrivalSpec{
			Kind: workload.Poisson, RatePerSec: 2, HorizonSec: 2}}
	}
	alt := func(n int) workload.Spec {
		return workload.Spec{Slots: 4, QueueLen: 2, Seed: 1, Alternations: n}
	}
	ant := workload.Spec{Slots: 4, QueueLen: 2, Seed: 2, Fleet: workload.FleetAntagonist}
	return Campaign{Env: env, Specs: []Spec{
		{Queues: serving(1), DurationSec: 2, Mode: sim.Hybrid, Params: loop45, Online: online.DefaultConfig(), Seed: 1},
		{Queues: serving(2), DurationSec: 2, Mode: sim.Tuned, Params: loop45, Seed: 2},
		{Queues: alt(16), DurationSec: 2, Mode: sim.Dynamic, Online: online.DefaultConfig(), Seed: 1},
		{Queues: alt(64), DurationSec: 2, Mode: sim.Tuned, Params: loop45, Seed: 1},
		{Queues: ant, DurationSec: 2, Mode: sim.Oracle, Params: loop45, Seed: 2},
		{Queues: serving(1), DurationSec: 2, Mode: sim.Baseline, Seed: 1},
		{Queues: alt(16), DurationSec: 2, Mode: sim.Baseline, Seed: 3},
		{Queues: ant, DurationSec: 2, Mode: sim.Baseline, Seed: 4},
	}}
}

// TestHostSharesFleetBenchmarks pins the host's benchmark memo: concurrent
// lowerings of serving, alternation and antagonist specs draw one
// *Benchmark per distinct BenchSpec — the alternation anchors across rates
// included — and leave the suite ungenerated.
func TestHostSharesFleetBenchmarks(t *testing.T) {
	camp := fleetCampaign()
	host := NewHost(camp.Env, nil, nil, nil)
	cfgs := make([]sim.RunConfig, len(camp.Specs))
	errs := make([]error, len(camp.Specs))
	var wg sync.WaitGroup
	for i, sp := range camp.Specs {
		wg.Add(1)
		go func(i int, sp Spec) {
			defer wg.Done()
			cfgs[i], errs[i] = host.RunConfig(sp)
		}(i, sp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lowering %d: %v", i, err)
		}
	}

	byName := map[string]*workload.Benchmark{}
	share := func(label string, b *workload.Benchmark) {
		if prev, ok := byName[b.Name()]; ok && prev != b {
			t.Errorf("%s: %s generated twice", label, b.Name())
		}
		byName[b.Name()] = b
	}
	for i, cfg := range cfgs {
		if cfg.Stream != nil {
			for _, b := range cfg.Stream.Fleet {
				share("serving", b)
			}
			continue
		}
		for _, slot := range cfg.Workload.Slots {
			for _, b := range slot {
				share(camp.Specs[i].Queues.Fleet+" fleet", b)
			}
		}
	}
	for _, name := range []string{"srv.gzip", "alt.x16", "alt.x64.r", "alt.cpu", "alt.mem", "ant.mem", "ant.cpu"} {
		if byName[name] == nil {
			t.Errorf("no lowering drew %s", name)
		}
	}
	if got, want := len(memoized(host)), len(byName); got != want {
		t.Errorf("memo holds %d specs, want the %d distinct ones drawn", got, want)
	}
	if host.suite != nil {
		t.Error("fleet lowerings generated the suite")
	}
}

// TestHostSuiteDrawsGenerateNoFleet pins that the suite goes through the
// same memo and that suite draws generate its members alone.
func TestHostSuiteDrawsGenerateNoFleet(t *testing.T) {
	camp := testCampaign()
	host := NewHost(camp.Env, nil, nil, nil)
	if _, err := host.RunConfig(camp.Specs[0]); err != nil {
		t.Fatal(err)
	}
	got := memoized(host)
	specs := workload.Specs()
	if len(got) != len(specs) {
		t.Errorf("memo holds %d specs after a suite draw, want the %d suite members", len(got), len(specs))
	}
	suite, err := host.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if !got[s] {
			t.Errorf("suite member %s not generated through the memo", s.Name)
		}
		if b, _ := host.generate(s); b != suite[i] {
			t.Errorf("suite member %s is not the memo's benchmark", s.Name)
		}
	}
}

// TestHostRejectsMalformedArrivalsFirst pins that a bad arrival process
// fails the lowering before any benchmark is generated or memoized.
func TestHostRejectsMalformedArrivalsFirst(t *testing.T) {
	env := fleetCampaign().Env
	for _, tc := range []struct {
		name string
		arr  workload.ArrivalSpec
	}{
		{"zero rate", workload.ArrivalSpec{Kind: workload.Poisson, HorizonSec: 2}},
		{"unknown kind", workload.ArrivalSpec{Kind: -1, RatePerSec: 1, HorizonSec: 2}},
		{"empty stream", workload.ArrivalSpec{Kind: workload.Poisson, RatePerSec: 1e-9, HorizonSec: 1e-9}},
	} {
		host := NewHost(env, nil, nil, nil)
		sp := Spec{Queues: workload.Spec{Seed: 1, Arrivals: &tc.arr}, DurationSec: 1, Mode: sim.Baseline}
		if _, err := host.RunConfig(sp); err == nil {
			t.Errorf("%s: lowering accepted", tc.name)
		}
		if n := len(memoized(host)); n != 0 {
			t.Errorf("%s: %d benchmarks generated before the spec was rejected", tc.name, n)
		}
	}
}

// TestHostSharedFleetsMatchFreshHosts pins that sharing is result-neutral:
// a mixed synthetic campaign run concurrently through one host encodes
// byte for byte like each spec run alone on a fresh host, so no run
// modifies a Benchmark another run draws.
func TestHostSharedFleetsMatchFreshHosts(t *testing.T) {
	camp := fleetCampaign()
	shared := NewHost(camp.Env, nil, sim.NewImageCache(), exec.NewCostTables())
	got := make([][]byte, len(camp.Specs))
	errs := make([]error, len(camp.Specs))
	var wg sync.WaitGroup
	for i, sp := range camp.Specs {
		wg.Add(1)
		go func(i int, sp Spec) {
			defer wg.Done()
			res, err := shared.Run(context.Background(), sp)
			if err == nil {
				got[i], err = EncodeResult(res)
			}
			errs[i] = err
		}(i, sp)
	}
	wg.Wait()
	for i, sp := range camp.Specs {
		if errs[i] != nil {
			t.Fatalf("shared host spec %d: %v", i, errs[i])
		}
		res, err := NewHost(camp.Env, nil, nil, nil).Run(context.Background(), sp)
		if err != nil {
			t.Fatalf("fresh host spec %d: %v", i, err)
		}
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("spec %d: shared-host result differs from a fresh host's", i)
		}
	}
}
