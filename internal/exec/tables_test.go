package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/ledger"
	"phasetune/internal/phase"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// maskHook answers every phase mark with an affinity request derived from
// the mark ID, so StepResult.WantMask is part of the comparison.
type maskHook struct{}

func (maskHook) OnMark(_ *exec.Process, markID, _ int) exec.MarkAction {
	return exec.MarkAction{Mask: uint64(markID%3) + 1}
}

func (maskHook) OnExit(*exec.Process) {}

// TestStepLaneMatchesStep is the reference test for table pricing: the
// kernel prices every step from a cost-table lane, and Process.Step prices
// it from the cache model directly. For every suite image on every core
// type of the three-type machine at a full, half and third share of that
// core's L2, two processes with the same seed — one stepped through
// StepLane, one through Step — must agree on the StepResult, the counters,
// the control state and the ledger segment of every step until exit. The
// images are loop-instrumented: they execute every block of the
// uninstrumented program, plus phase marks whose hook requests affinity
// changes.
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
					compareSteps(t, art.Image, &cm, lane, par, core, share, fastPs)
				})
			}
		}
	}
	if marked == 0 {
		t.Fatal("no suite image carries phase marks")
	}
}

// compareSteps runs the two processes in lockstep and fails at the first
// step they disagree on.
func compareSteps(t *testing.T, img *exec.Image, cm *exec.CostModel, lane *exec.Lane,
	par *exec.CoreParams, core int, share float64, fastPs int64) {

	t.Helper()
	const seed = 17
	col := ledger.NewCollector(1, fastPs)
	byLane := exec.NewProcess(1, img, cm, seed, maskHook{})
	byStep := exec.NewProcess(1, img, cm, seed, maskHook{})
	byLane.Work, byStep.Work = col.Work(), col.Work()
	for n := 0; !byStep.Exited(); n++ {
		proc, block := byStep.Position()
		got := byLane.StepLane(lane, core)
		want := byStep.Step(par, core, share)
		gotSegs, wantSegs := byLane.Work.Drain(), byStep.Work.Drain()
		switch {
		case got != want:
			t.Fatalf("step %d (proc %d block %d): StepLane %+v, Step %+v", n, proc, block, got, want)
		case byLane.Counters != byStep.Counters:
			t.Fatalf("step %d (proc %d block %d): counters %+v, want %+v", n, proc, block, byLane.Counters, byStep.Counters)
		case !exec.SameControl(byLane, byStep, proc, block):
			t.Fatalf("step %d (proc %d block %d): control state diverged", n, proc, block)
		case !slices.Equal(gotSegs, wantSegs):
			t.Fatalf("step %d (proc %d block %d): ledger segments %+v, want %+v", n, proc, block, gotSegs, wantSegs)
		}
		byLane.Work.Recycle(gotSegs)
		byStep.Work.Recycle(wantSegs)
	}
	if !byLane.Exited() || !exec.SameLoopCounts(byLane, byStep) {
		t.Fatal("processes disagree at exit")
	}
}
