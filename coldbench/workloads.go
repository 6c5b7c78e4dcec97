package main

import (
	"fmt"

	"phasetune"
	"phasetune/internal/online"
)

// cell is one run of an op, tagged with the policy column it stands for
// ("" for technique-grid runs) and its offered load (open systems only).
type cell struct {
	spec   phasetune.RunSpec
	policy string
	load   float64
}

// group is the share of an op that one fresh Session executes: every op
// builds one session per machine, so nothing is reused across ops.
type group struct {
	machine *phasetune.Machine
	open    bool // open-system serving: overcommit dispatch on
	cells   []cell
}

// plan is one op: the groups it runs, in order.
type plan []group

// scale sizes the workloads. The benchmark runs fullScale; the package
// tests run tinyScale so every workload finishes in well under a second.
type scale struct {
	gridSec    float64 // simulated seconds per technique-grid run
	gridQueue  int     // jobs per slot queue in the grid
	showSec    float64 // simulated seconds per showdown run
	showSlots  int
	showQueue  int
	showSeeds  int     // workload seeds per machine
	serveSec   float64 // simulated seconds per serving run (admission stops at 75%)
	serveLoads []float64
}

var fullScale = scale{
	gridSec: 10, gridQueue: 8,
	showSec: 50, showSlots: 4, showQueue: 64, showSeeds: 4,
	serveSec: 24, serveLoads: []float64{0.75, 1.0, 1.25},
}

var tinyScale = scale{
	gridSec: 1, gridQueue: 2,
	showSec: 2, showSlots: 2, showQueue: 4, showSeeds: 1,
	serveSec: 12, serveLoads: []float64{1.0},
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	sharded bool // ops run through Session.SweepSharded instead of Sweep
	plan    func(sc scale, opSeed uint64) plan
	// check validates one op's results beyond the checks every op gets.
	check func(p plan, r *opResult) error
}

// shards is the in-process fabric worker count of sharded ops.
const shards = 2

func workloads() []*workload {
	return []*workload{
		{
			// Fresh-session technique grid: the static pipeline and cache
			// keying dominate, simulation is small.
			name:  "cold_grid",
			plan:  gridPlan,
			check: checkSingleflight,
		},
		{
			// Eight-policy closed-system showdown on quad and hex: the
			// interpreter, segment memo and placement policies dominate.
			name: "showdown",
			plan: showdownPlan,
		},
		{
			// Open-system Poisson arrivals with overcommit below, at and above
			// capacity: job churn, slicing, little memo reuse.
			name:  "serving",
			plan:  servingPlan,
			check: checkServing,
		},
		{
			// The cold_grid specs through a 2-worker in-process fabric: spec
			// lowering, lease/commit, canonical results.
			name:    "sharded_grid",
			sharded: true,
			plan:    gridPlan,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// gridVariants are the paper's technique variants the grid instruments:
// BB[15, lookahead 1], Int[45], Loop[30] and the best variant Loop[45].
func gridVariants() []phasetune.TechniqueParams {
	return []phasetune.TechniqueParams{
		{Technique: phasetune.BasicBlock, MinSize: 15, Lookahead: 1, PropagateThroughUntyped: true},
		{Technique: phasetune.Interval, MinSize: 45, PropagateThroughUntyped: true},
		{Technique: phasetune.Loop, MinSize: 30, PropagateThroughUntyped: true},
		phasetune.BestParams(),
	}
}

// gridPlan is the technique grid × 2 workload seeds, 4-slot queues, in
// Tuned mode on the quad AMP.
func gridPlan(sc scale, opSeed uint64) plan {
	g := group{machine: phasetune.QuadAMP()}
	for k := uint64(0); k < 2; k++ {
		seed := derive(opSeed, k)
		q := &phasetune.WorkloadSpec{Slots: 4, QueueLen: sc.gridQueue, Seed: seed}
		for _, params := range gridVariants() {
			g.cells = append(g.cells, cell{spec: phasetune.RunSpec{
				Queues: q, DurationSec: sc.gridSec, Mode: phasetune.Tuned,
				Params: params, Seed: seed,
			}})
		}
	}
	return plan{g}
}

// policyColumn is one §V showdown column as RunSpec overrides.
type policyColumn struct {
	name string
	set  func(spec *phasetune.RunSpec)
}

func onlineWith(kind phasetune.OnlinePolicyKind, drift float64) *phasetune.OnlineConfig {
	c := phasetune.DefaultOnline()
	c.Policy = kind
	c.Delta = phasetune.DefaultTuning().Delta
	c.Hybrid.Drift = drift
	return &c
}

func showdownColumns() []policyColumn {
	spill := phasetune.DefaultTuning()
	spill.Spill = true
	return []policyColumn{
		{"none", func(s *phasetune.RunSpec) { s.Policy = phasetune.PolicyNone }},
		{"static", func(s *phasetune.RunSpec) { s.Policy = phasetune.PolicyStatic }},
		{"static/spill", func(s *phasetune.RunSpec) { s.Policy, s.Tuning = phasetune.PolicyStatic, &spill }},
		{"dynamic/greedy", func(s *phasetune.RunSpec) {
			s.Policy, s.Online = phasetune.PolicyDynamic, onlineWith(phasetune.OnlineGreedy, 0)
		}},
		{"dynamic/probe", func(s *phasetune.RunSpec) {
			s.Policy, s.Online = phasetune.PolicyDynamic, onlineWith(phasetune.OnlineProbe, 0)
		}},
		{"hybrid", func(s *phasetune.RunSpec) {
			s.Policy, s.Online = phasetune.PolicyHybrid, onlineWith(phasetune.OnlineProbe, 0)
		}},
		{"hybrid/damped", func(s *phasetune.RunSpec) {
			s.Policy, s.Online = phasetune.PolicyHybrid, onlineWith(phasetune.OnlineProbe, online.DefaultDrift)
		}},
		{"oracle", func(s *phasetune.RunSpec) { s.Policy = phasetune.PolicyOracle }},
	}
}

// servingColumns are the serving policy columns (a subset of the showdown's).
func servingColumns() []policyColumn {
	keep := map[string]bool{"none": true, "static": true, "dynamic/probe": true, "hybrid": true, "oracle": true}
	var cols []policyColumn
	for _, c := range showdownColumns() {
		if keep[c.name] {
			cols = append(cols, c)
		}
	}
	return cols
}

// showdownPlan runs every showdown column on several workload seeds per
// machine; the columns of one seed share its queues, the paper's protocol.
// More seeds per op make ops alike, so a run's median moves less with --seed.
func showdownPlan(sc scale, opSeed uint64) plan {
	var p plan
	for i, m := range []*phasetune.Machine{phasetune.QuadAMP(), phasetune.TriTypeAMP()} {
		g := group{machine: m}
		for k := 0; k < sc.showSeeds; k++ {
			seed := derive(opSeed, uint64(i*sc.showSeeds+k))
			q := &phasetune.WorkloadSpec{Slots: sc.showSlots, QueueLen: sc.showQueue, Seed: seed}
			for _, col := range showdownColumns() {
				spec := phasetune.RunSpec{Queues: q, DurationSec: sc.showSec, Seed: seed}
				col.set(&spec)
				g.cells = append(g.cells, cell{spec: spec, policy: col.name})
			}
		}
		p = append(p, g)
	}
	return p
}

func servingPlan(sc scale, opSeed uint64) plan {
	var p plan
	for i, m := range []*phasetune.Machine{phasetune.QuadAMP(), phasetune.TriTypeAMP()} {
		g := group{machine: m, open: true}
		for j, load := range sc.serveLoads {
			seed := derive(opSeed, uint64(i*len(sc.serveLoads)+j))
			arr := phasetune.ServingArrivals(m, phasetune.ArrivalPoisson, load, 0.75*sc.serveSec)
			for _, col := range servingColumns() {
				spec := phasetune.RunSpec{Arrivals: &arr, DurationSec: sc.serveSec, Seed: seed}
				col.set(&spec)
				g.cells = append(g.cells, cell{spec: spec, policy: col.name, load: load})
			}
		}
		p = append(p, g)
	}
	return p
}

// derive is splitmix64 over (seed, k): the seed of the k-th input drawn
// from seed. The benchmark's whole input stream is a function of --seed.
func derive(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
