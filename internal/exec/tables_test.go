package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/ledger"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// maskHook answers phase marks with affinity requests derived from the mark
// ID and the core: none, a mask that keeps the core (the burst goes on
// under the new mask), or one that excludes it (the burst ends in a
// migration). So every way a mark can end or continue a burst is part of
// the comparison.
type maskHook struct{}

func (maskHook) OnMark(_ *exec.Process, markID, coreID int) exec.MarkAction {
	const all = 1<<6 - 1
	switch markID % 3 {
	case 1:
		return exec.MarkAction{Mask: 1<<uint(coreID) | 1<<uint(markID%6)}
	case 2:
		return exec.MarkAction{Mask: all &^ (1 << uint(coreID))}
	}
	return exec.MarkAction{}
}

func (maskHook) OnExit(*exec.Process) {}

// TestStepLaneMatchesStep is the reference test for the kernel's burst
// interpreter: the kernel runs every burst through Process.RunBurst, which
// prices blocks from a cost-table lane and runs batched loop iterations
// whole, while Process.Step prices every block from the cache model
// directly. For every suite image on every core type of the three-type
// machine at a full, half and third share of that core's L2, a process
// run by a Step loop under the kernel's stop rule and one run by RunBurst
// per budget, all with the same seed, must agree at every burst end on
// the BurstResult, the affinity mask, the counters, the control state and
// rng position, the loop counters and the ledger segments, until exit.
// Budgets: 1, 7 and 97 cycles, one full timeslice, and one that makes
// bursts end inside batched iterations. The images are loop-instrumented: they execute
// every block of the uninstrumented program, plus phase marks whose hook
// requests affinity changes that keep or leave the core.
func TestStepLaneMatchesStep(t *testing.T) {
	machine := amp.Hex2Big2Medium2Little()
	cm := exec.DefaultCostModel()
	suite, err := workload.Suite(cm, machine)
	if err != nil {
		t.Fatal(err)
	}
	pars := exec.ParamsFor(cm, machine)
	fastPs := pars[0].PsPerCycle
	for _, p := range pars {
		fastPs = min(fastPs, p.PsPerCycle)
	}
	cache := sim.NewImageCache()
	tuned := sim.ImageSpec{
		Params: transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true},
		Typing: phase.Options{K: 2, MinBlockInstrs: 5},
	}
	tables := exec.NewCostTables()
	marked := 0
	for _, b := range suite {
		art, err := cache.Get(b.Prog, tuned, cm)
		if err != nil {
			t.Fatal(err)
		}
		if art.Stats.Marks > 0 {
			marked++
		}
		for ti := range pars {
			par := &pars[ti]
			core := machine.CoresOfType(par.Type)[0]
			l2KB := machine.L2s[machine.Cores[core].L2].SizeKB
			for _, div := range []float64{1, 2, 3} {
				share := l2KB / div
				t.Run(fmt.Sprintf("%s/type%d/share%.0f", b.Name(), ti, share), func(t *testing.T) {
					t.Parallel()
					lane := tables.LaneFor(exec.NewProcess(0, art.Image, &cm, 0, nil), par, share, fastPs)
					prefix := lane.MaxBatchPrefix()
					if prefix == 0 {
						t.Fatal("no batched loop with a multi-block body")
					}
					slice := int64(osched.DefaultConfig().TimesliceSec * par.CyclesPerSec)
					// The last budget makes every burst that reaches a
					// loop head with used+maxPrefix ≥ budget fall back to
					// single steps there, so bursts end inside iterations.
					budgets := []int64{1, 7, 97, slice, prefix}
					mid := compareBursts(t, art.Image, &cm, lane, par, core, share, fastPs, budgets)
					if mid == 0 {
						t.Errorf("budget %d: no burst ended inside a batched iteration", prefix)
					}
				})
			}
		}
	}
	if marked == 0 {
		t.Fatal("no suite image carries phase marks")
	}
}

// burstRun is one budget's RunBurst process, plus the reference's view of
// the burst it is in: the Step loop's used cycles, affinity mask and
// ledger segments since that burst began.
type burstRun struct {
	budget int64
	p      *exec.Process
	aff    uint64
	got    exec.BurstResult
	n      int // bursts started

	used   int64
	refAff uint64
	segs   []ledger.Segment

	countMid bool
	mid      int // bursts that ended inside a batched iteration
}

// start begins the run's next burst. Every fourth burst starts with
// penalty cycles already used, as the kernel's do after a migration or a
// context switch.
func (b *burstRun) start(lane *exec.Lane, core int) {
	b.used = 0
	if b.n%4 == 3 {
		b.used = 3
	}
	b.n++
	b.got = b.p.RunBurst(lane, core, b.used, b.budget, &b.aff)
}

// compareBursts runs one Step-loop reference process and one RunBurst
// process per budget from the same seed. It steps the reference one block
// at a time and applies every budget's stop rule to it; wherever a
// budget's burst ends, that budget's process must agree with the reference
// on the BurstResult, the affinity mask, the counters, the control state
// and rng position, the loop counters and the ledger segments of the
// burst. It returns how many bursts of the last budget ended inside a
// batched iteration.
func compareBursts(t *testing.T, img *exec.Image, cm *exec.CostModel, lane *exec.Lane,
	par *exec.CoreParams, core int, share float64, fastPs int64, budgets []int64) (mid int) {

	t.Helper()
	const seed, all = 17, 1<<6 - 1
	col := ledger.NewCollector(1, fastPs)
	ref := exec.NewProcess(1, img, cm, seed, maskHook{})
	ref.Work = col.Work()
	interior := img.BatchInterior()
	runs := make([]*burstRun, len(budgets))
	for i, budget := range budgets {
		b := &burstRun{budget: budget, p: exec.NewProcess(1, img, cm, seed, maskHook{}), aff: all, refAff: all,
			countMid: i == len(budgets)-1}
		b.p.Work = col.Work()
		runs[i] = b
	}
	// check compares a run at the end of its current burst, when the
	// reference's stop rule gives want.
	check := func(b *burstRun, want exec.BurstResult) {
		gotSegs := b.p.Work.Drain()
		var bad string
		switch {
		case b.got != want:
			bad = fmt.Sprintf("RunBurst %+v, Step loop %+v", b.got, want)
		case b.aff != b.refAff:
			bad = fmt.Sprintf("affinity %#x, want %#x", b.aff, b.refAff)
		case b.p.Counters != ref.Counters:
			bad = fmt.Sprintf("counters %+v, want %+v", b.p.Counters, ref.Counters)
		case !exec.SameControl(b.p, ref):
			bad = "control state or rng position diverged"
		case !exec.SameLoopCounts(b.p, ref):
			bad = "loop counters diverged"
		case !slices.Equal(gotSegs, b.segs):
			bad = fmt.Sprintf("ledger segments %+v, want %+v", gotSegs, b.segs)
		}
		if bad != "" {
			t.Fatalf("budget %d burst %d: %s", b.budget, b.n-1, bad)
		}
		if b.countMid && interior(ref) {
			b.mid++
		}
		b.p.Work.Recycle(gotSegs)
		b.segs = b.segs[:0]
	}
	// begin starts a run's next burst; a burst whose penalty already
	// reaches the budget runs no block and ends at once.
	begin := func(b *burstRun) {
		for b.start(lane, core); b.used >= b.budget; b.start(lane, core) {
			check(b, exec.BurstResult{Used: b.used})
		}
	}
	for _, b := range runs {
		begin(b)
	}
	for !ref.Exited() {
		r := ref.Step(par, core, share)
		stepSegs := ref.Work.Drain()
		for _, b := range runs {
			b.used += r.Cycles
			b.segs = appendSegs(b.segs, stepSegs)
			want := exec.BurstResult{Used: b.used, Exited: r.Exited}
			end := b.used >= b.budget || r.Exited
			if !r.Exited && r.WantMask != 0 && r.WantMask != b.refAff {
				b.refAff = r.WantMask
				if r.WantMask&(1<<uint(core)) == 0 {
					want.Migrate, end = true, true
				}
			}
			if end {
				check(b, want)
				if !r.Exited {
					begin(b)
				}
			}
		}
		ref.Work.Recycle(stepSegs)
	}
	return runs[len(runs)-1].mid
}

// appendSegs appends one step's ledger segments to a burst's, merging
// adjacent segments of one (phase, spilled) context as a ledger.Work
// charged without draining would.
func appendSegs(segs, step []ledger.Segment) []ledger.Segment {
	for _, s := range step {
		if n := len(segs); n > 0 && segs[n-1].Phase == s.Phase && segs[n-1].Spilled == s.Spilled {
			segs[n-1].ActualPs += s.ActualPs
			segs[n-1].IdealPs += s.IdealPs
			segs[n-1].MarkPs += s.MarkPs
			continue
		}
		segs = append(segs, s)
	}
	return segs
}
