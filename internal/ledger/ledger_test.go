package ledger

import (
	"strings"
	"testing"
)

// TestVerifyRejectsOverCharge books one burst whose segments claim 200 ps
// inside a 100 ps span. Every sum still balances (idle absorbs the
// excess as -100 ps), so only the non-negativity check can catch it.
func TestVerifyRejectsOverCharge(t *testing.T) {
	c := NewCollector(1, 1)
	c.AddTask(1, "a")
	c.Charge(Burst{Core: 0, PID: 1, PsPerCycle: 1, StartPs: 0, EndPs: 100,
		Segs: []Segment{{Phase: 0, ActualPs: 200, IdealPs: 200}}})
	l := c.Finalize(100)
	if l.PerCore[0].IdlePs != -100 {
		t.Fatalf("idle = %d ps, want -100", l.PerCore[0].IdlePs)
	}
	err := l.Verify()
	if err == nil || !strings.Contains(err.Error(), "idle is negative") {
		t.Fatalf("Verify() = %v, want a negative-idle error", err)
	}

	// A negative per-task category is rejected even when the cores are
	// sound.
	l = validLedger(t)
	l.PerTask[0].UsefulPs += l.PerTask[0].AsymmetryPs + 5 // keep the busy sum balanced
	l.PerTask[0].AsymmetryPs = -5
	if err := l.Verify(); err == nil || !strings.Contains(err.Error(), "task 1 asymmetry is negative") {
		t.Fatalf("Verify() = %v, want a negative task-asymmetry error", err)
	}
}

// validLedger hand-builds a two-core, two-task run through Work
// accumulators, the way the kernel and interpreter drive a collector.
func validLedger(t *testing.T) *Ledger {
	t.Helper()
	c := NewCollector(2, 2)
	c.AddTask(1, "a")
	c.AddTask(2, "b")

	wa := c.Work()
	wa.Add(40, 30) // untyped: 30 useful + 10 asymmetry
	wa.SetPhase(1)
	wa.AddMark(6)
	wa.Add(20, 20)
	c.Charge(Burst{Core: 0, PID: 1, PsPerCycle: 2, StartPs: 0, EndPs: 80, QueuePs: 7,
		MigrateCycles: 3, MonitorCycles: 2, CtxCycles: 2, Segs: wa.Drain()})

	wb := c.Work()
	wb.SetPhase(0)
	wb.SetSpilled(true)
	wb.Add(50, 20) // 20 useful + 30 spill
	c.Charge(Burst{Core: 1, PID: 2, PsPerCycle: 5, StartPs: 10, EndPs: 70,
		CtxCycles: 2, Sliced: true, Segs: wb.Drain()})

	l := c.Finalize(90)
	if err := l.Verify(); err != nil {
		t.Fatalf("hand-built ledger: %v", err)
	}
	return l
}

// TestConservationHandBuilt checks every rollup of a hand-built collector
// against values worked out by hand, and the exact identities Verify
// pins.
func TestConservationHandBuilt(t *testing.T) {
	l := validLedger(t)
	want0 := Breakdown{UsefulPs: 50, AsymmetryPs: 10, MarksPs: 6, MonitorPs: 4,
		MigrationPs: 6, CtxSwitchPs: 4, IdlePs: 10}
	want1 := Breakdown{UsefulPs: 20, SpillPs: 30, SlicingPs: 10, IdlePs: 30}
	if l.HorizonPs != 90 || l.Cores != 2 {
		t.Fatalf("horizon %d cores %d, want 90 and 2", l.HorizonPs, l.Cores)
	}
	if l.PerCore[0] != want0 {
		t.Errorf("core 0 = %+v, want %+v", l.PerCore[0], want0)
	}
	if l.PerCore[1] != want1 {
		t.Errorf("core 1 = %+v, want %+v", l.PerCore[1], want1)
	}
	if got, want := l.Total.Total(), int64(2*90); got != want {
		t.Errorf("total %d ps, want cores x horizon = %d", got, want)
	}
	if l.PerTask[0].QueuePs != 7 || l.PerTask[0].BusyPs() != 80 || l.PerTask[1].BusyPs() != 60 {
		t.Errorf("tasks = %+v", l.PerTask)
	}
	wantPhases := []PhaseLedger{
		{Phase: PhaseUntyped, Breakdown: Breakdown{UsefulPs: 30, AsymmetryPs: 10}},
		{Phase: 0, Breakdown: Breakdown{UsefulPs: 20, SpillPs: 30}},
		{Phase: 1, Breakdown: Breakdown{UsefulPs: 20, MarksPs: 6}},
	}
	if len(l.PerPhase) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %+v", l.PerPhase, wantPhases)
	}
	for i := range wantPhases {
		if l.PerPhase[i] != wantPhases[i] {
			t.Errorf("phase row %d = %+v, want %+v", i, l.PerPhase[i], wantPhases[i])
		}
	}
}

// TestFinalizeHorizonExtendsToLastBurst: a burst dispatched before the
// kernel clock stopped may end after it; the horizon follows it so no
// core's busy time exceeds the span.
func TestFinalizeHorizonExtendsToLastBurst(t *testing.T) {
	c := NewCollector(2, 1)
	c.AddTask(1, "late")
	c.Charge(Burst{Core: 1, PID: 1, PsPerCycle: 1, StartPs: 80, EndPs: 150})
	l := c.Finalize(100)
	if l.HorizonPs != 150 {
		t.Fatalf("horizon = %d ps, want the burst end 150", l.HorizonPs)
	}
	if l.PerCore[0].IdlePs != 150 || l.PerCore[1].IdlePs != 80 {
		t.Errorf("idle = %d, %d ps, want 150, 80", l.PerCore[0].IdlePs, l.PerCore[1].IdlePs)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l := NewCollector(1, 1).Finalize(100); l.HorizonPs != 100 || l.PerCore[0].IdlePs != 100 {
		t.Errorf("empty collector: horizon %d idle %d, want 100 and 100", l.HorizonPs, l.PerCore[0].IdlePs)
	}
}

// TestWorklessResidualIsUntypedUseful: a burst without step attribution
// books the span left after its scheduler charges as unphased useful
// time, so it still tiles its span.
func TestWorklessResidualIsUntypedUseful(t *testing.T) {
	c := NewCollector(1, 1)
	c.AddTask(3, "raw")
	c.Charge(Burst{Core: 0, PID: 3, PsPerCycle: 1, StartPs: 0, EndPs: 100, CtxCycles: 10})
	l := c.Finalize(100)
	if want := (Breakdown{UsefulPs: 90, CtxSwitchPs: 10}); l.PerCore[0] != want {
		t.Errorf("core = %+v, want %+v", l.PerCore[0], want)
	}
	if len(l.PerPhase) != 1 || l.PerPhase[0].Phase != PhaseUntyped || l.PerPhase[0].UsefulPs != 90 {
		t.Errorf("phases = %+v, want one untyped row with 90 ps useful", l.PerPhase)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSlicedBurstReclassifiesCtxSwitch: an overcommit-shortened slice's
// context-switch charge is slicing tax, not ctx-switch.
func TestSlicedBurstReclassifiesCtxSwitch(t *testing.T) {
	for _, sliced := range []bool{false, true} {
		c := NewCollector(1, 1)
		c.Charge(Burst{Core: 0, PID: 1, PsPerCycle: 3, StartPs: 0, EndPs: 30, CtxCycles: 4, Sliced: sliced})
		b := c.Finalize(30).PerCore[0]
		ctx, slicing := b.CtxSwitchPs, b.SlicingPs
		if sliced {
			ctx, slicing = slicing, ctx
		}
		if ctx != 12 || slicing != 0 {
			t.Errorf("sliced=%v: ctx-switch %d slicing %d ps", sliced, b.CtxSwitchPs, b.SlicingPs)
		}
	}
}

// TestPerPhaseSorted: per-phase rows come out sorted by phase whatever
// order the phases were first charged in.
func TestPerPhaseSorted(t *testing.T) {
	c := NewCollector(1, 1)
	for i, ph := range []int{3, PhaseUntyped, 1, 0} {
		c.Charge(Burst{Core: 0, PID: 1, PsPerCycle: 1, StartPs: int64(10 * i), EndPs: int64(10*i + 10),
			Segs: []Segment{{Phase: ph, ActualPs: 10, IdealPs: 10}}})
	}
	l := c.Finalize(40)
	var got []int
	for _, p := range l.PerPhase {
		got = append(got, p.Phase)
	}
	want := []int{PhaseUntyped, 0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phases %v, want %v", got, want)
		}
	}
}
