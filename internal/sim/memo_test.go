package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/trace"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// The shared cost-table store's contract is invisibility: a run priced from
// a store shared with other runs has a Result byte-identical to one priced
// from private tables (RunConfig.Tables nil), cold store or warm, across
// every policy, machine, and system mode. These tests pin that contract the
// same way the dist wire format does — by canonical JSON bytes. (The test
// names predate the segment memo's removal; the public MemoStats and
// WithoutSegmentMemo names report and switch the same store.)

var memoModes = []Mode{Baseline, Tuned, Dynamic, Oracle, Hybrid}

func memoMachines() map[string]*amp.Machine {
	return map[string]*amp.Machine{
		"quad2f2s":  amp.Quad2Fast2Slow(),
		"three2f1s": amp.ThreeCore2Fast1Slow(),
		"hex2b2m2l": amp.Hex2Big2Medium2Little(),
	}
}

// memoConfig builds one run cell. Closed cells draw a slot-queue workload
// from the suite; open cells materialize a Poisson stream and enable the
// overcommit dispatcher the way serving experiments do.
func memoConfig(t testing.TB, machine *amp.Machine, mode Mode, open bool, seed uint64) RunConfig {
	t.Helper()
	cost := exec.DefaultCostModel()
	cfg := RunConfig{
		Machine:     machine,
		Cost:        &cost,
		DurationSec: 2,
		Mode:        mode,
		Params:      transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true},
		TypingOpts:  phase.Options{K: 2, MinBlockInstrs: 5},
		Seed:        seed,
	}
	if open {
		stream, err := workload.Spec{
			Seed:     seed,
			Arrivals: &workload.ArrivalSpec{Kind: workload.Poisson, RatePerSec: 3, HorizonSec: 1.5},
		}.MaterializeOpen(cost, machine)
		if err != nil {
			t.Fatal(err)
		}
		sched := osched.DefaultConfig()
		sched.Overcommit.Enabled = true
		cfg.Stream = stream
		cfg.Sched = &sched
	} else {
		suite, err := workload.Suite(cost, machine)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = workload.Spec{Slots: 2, QueueLen: 2, Seed: seed}.Build(suite)
	}
	return cfg
}

// resultBytes canonically encodes a run result — the same identity the
// dist layer commits to its result files.
func resultBytes(t testing.TB, res *Result) []byte {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func runBytes(t testing.TB, cfg RunConfig, tables *exec.CostTables) []byte {
	t.Helper()
	cfg.Tables = tables
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res)
}

// TestMemoGoldenIdentity is the identity guarantee: across all five
// policies, three machines, and closed/open system modes, a run on a shared
// store — cold and warm — produces a Result byte-identical to a run on
// private tables, and the warm rerun builds no table. Ledger accounting is
// on everywhere so conserved cycle attribution is part of the pinned bytes.
func TestMemoGoldenIdentity(t *testing.T) {
	cache := NewImageCache()
	for mname, machine := range memoMachines() {
		for _, mode := range memoModes {
			for _, open := range []bool{false, true} {
				sys := "closed"
				if open {
					sys = "open"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", mname, mode, sys), func(t *testing.T) {
					cfg := memoConfig(t, machine, mode, open, 11)
					cfg.Ledger = true
					cfg.Cache = cache

					plain := runBytes(t, cfg, nil)
					tables := exec.NewCostTables()
					cold := runBytes(t, cfg, tables)
					coldStats := tables.Stats()
					warm := runBytes(t, cfg, tables)

					if !bytes.Equal(plain, cold) {
						t.Errorf("cold shared-table result diverged from private-table run")
					}
					if !bytes.Equal(plain, warm) {
						t.Errorf("warm shared-table result diverged from private-table run")
					}
					stats := tables.Stats()
					if stats.Hits <= coldStats.Hits || stats.Lanes != coldStats.Lanes {
						t.Errorf("warm rerun did not reuse the cold run's tables: cold %+v, warm %+v", coldStats, stats)
					}
				})
			}
		}
	}
}

// TestMemoPropertyRandomConfigs drives random (policy, machine, arrivals,
// ledger, trace) combinations through shared-store and private-table
// execution and requires byte-identical results — and, when tracing,
// byte-identical trace files, since the store must be invisible to
// observers too.
func TestMemoPropertyRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	machines := []*amp.Machine{
		amp.Quad2Fast2Slow(),
		amp.ThreeCore2Fast1Slow(),
		amp.Hex2Big2Medium2Little(),
	}
	cache := NewImageCache()
	// One store across every trial, as a session shares it across a sweep.
	tables := exec.NewCostTables()
	traceJSON := func(tr *trace.Tracer) []byte {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for trial := 0; trial < 10; trial++ {
		mode := memoModes[rng.Intn(len(memoModes))]
		machine := machines[rng.Intn(len(machines))]
		open := rng.Intn(2) == 1
		ledger := rng.Intn(2) == 1
		traced := rng.Intn(2) == 1
		seed := uint64(rng.Int63())
		name := fmt.Sprintf("trial%d_%s_open%v_ledger%v_trace%v", trial, mode, open, ledger, traced)
		t.Run(name, func(t *testing.T) {
			cfg := memoConfig(t, machine, mode, open, seed)
			cfg.Ledger = ledger
			cfg.Cache = cache
			cfg.DurationSec = 1 + rng.Float64()

			var plainTrace, sharedTrace *trace.Tracer
			if traced {
				plainTrace, sharedTrace = trace.New(), trace.New()
			}

			plainCfg := cfg
			plainCfg.Trace = plainTrace
			plain := runBytes(t, plainCfg, nil)

			sharedCfg := cfg
			sharedCfg.Trace = sharedTrace
			shared := runBytes(t, sharedCfg, tables)

			if !bytes.Equal(plain, shared) {
				t.Errorf("shared-table result diverged from private-table run")
			}
			if traced && !bytes.Equal(traceJSON(plainTrace), traceJSON(sharedTrace)) {
				t.Errorf("shared-table trace diverged from private-table trace")
			}
		})
	}
}

// TestMemoCacheReuse mirrors the image-cache tests: a cold store builds
// every table it uses, an identical rerun builds none, and a distinct spec
// drawing the same images prices from the tables already built without
// leaking anything but prices across specs.
func TestMemoCacheReuse(t *testing.T) {
	cfg := memoConfig(t, amp.Quad2Fast2Slow(), Tuned, false, 5)
	// Lanes key on artifact identity, so cross-run reuse requires the runs
	// to draw their images from one shared cache (sessions, sweeps, and
	// dist workers all do).
	cfg.Cache = NewImageCache()
	tables := exec.NewCostTables()

	cold := runBytes(t, cfg, tables)
	stats := tables.Stats()
	if stats.Lanes == 0 || stats.Misses != uint64(stats.Lanes) || stats.RecordedSteps == 0 {
		t.Errorf("cold run built no tables: %+v", stats)
	}

	warm := runBytes(t, cfg, tables)
	wstats := tables.Stats()
	if wstats.Lanes != stats.Lanes || wstats.Misses != stats.Misses || wstats.Hits <= stats.Hits {
		t.Errorf("warm rerun rebuilt tables: cold %+v, warm %+v", stats, wstats)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm rerun diverged from cold run")
	}

	// A different spec — same job queues, different process seeds — sharing
	// the store must produce its own result and reuse the lanes its images
	// share with the first spec: it builds fewer tables than the same run
	// on a store of its own.
	other := cfg
	other.Seed = 6
	own := exec.NewCostTables()
	otherPlain := runBytes(t, other, own)
	otherShared := runBytes(t, other, tables)
	if !bytes.Equal(otherShared, otherPlain) {
		t.Error("cross-spec reuse perturbed the result")
	}
	if bytes.Equal(otherShared, cold) {
		t.Error("distinct seeds produced identical results")
	}
	built := tables.Stats().Lanes - wstats.Lanes
	if built >= own.Stats().Lanes {
		t.Errorf("second spec built %d tables on the shared store, %d on its own: no lane reused", built, own.Stats().Lanes)
	}
}

// TestMemoSweepShared runs a grid through Sweep with one shared store and
// requires the results to match a private-table sequential sweep — the
// concurrent, shared-cache configuration the experiment campaign uses.
func TestMemoSweepShared(t *testing.T) {
	var grid []RunConfig
	for _, mode := range []Mode{Baseline, Tuned, Dynamic} {
		for seed := uint64(1); seed <= 2; seed++ {
			grid = append(grid, memoConfig(t, amp.Quad2Fast2Slow(), mode, false, seed))
		}
	}
	cache := NewImageCache()
	for i := range grid {
		grid[i].Cache = cache
	}

	ctx := context.Background()
	plain, err := Sweep(ctx, grid, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tables := exec.NewCostTables()
	for i := range grid {
		grid[i].Tables = tables
	}
	shared, err := Sweep(ctx, grid, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := Sweep(ctx, grid, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		want := resultBytes(t, plain[i])
		if got := resultBytes(t, shared[i]); !bytes.Equal(want, got) {
			t.Errorf("grid[%d]: concurrent shared-table sweep diverged from sequential private-table sweep", i)
		}
		if got := resultBytes(t, rerun[i]); !bytes.Equal(want, got) {
			t.Errorf("grid[%d]: warm shared-table sweep diverged", i)
		}
	}
}
