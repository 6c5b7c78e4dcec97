package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/isa"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/rng"
)

var (
	alu  = prog.BlockMix{IntALU: 6}
	mem  = prog.BlockMix{Load: 4, Store: 2, IntALU: 1, WorkingSetKB: 8192, Locality: 0.4}
	fpu  = prog.BlockMix{FPMul: 3, FPAdd: 2}
	arms = func(p float64, a, b prog.BlockMix) func(*prog.ProcBuilder) {
		return func(pb *prog.ProcBuilder) {
			pb.IfElse(p, func(pb *prog.ProcBuilder) { pb.Straight(a) }, func(pb *prog.ProcBuilder) { pb.Straight(b) })
		}
	}
)

// batchShape is a hand-built program and which of its counted loops
// batch, in (procedure, block) order of their latches.
type batchShape struct {
	name    string
	build   func(b *prog.Builder, main *prog.ProcBuilder)
	batched []bool
}

var batchShapes = []batchShape{
	{"single block body", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(40, func(pb *prog.ProcBuilder) { pb.Straight(alu) })
	}, []bool{true}},
	{"nested IfElse", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(60, func(pb *prog.ProcBuilder) {
			pb.Straight(alu)
			pb.IfElse(0.3, func(pb *prog.ProcBuilder) {
				pb.Straight(mem)
				arms(0.6, fpu, alu)(pb)
			}, func(pb *prog.ProcBuilder) { pb.Straight(fpu) })
		})
	}, []bool{true}},
	{"geometric loop in body", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(30, func(pb *prog.ProcBuilder) {
			pb.Straight(alu)
			pb.LoopGeometric(4, func(pb *prog.ProcBuilder) { pb.Straight(mem) })
		})
	}, []bool{false}},
	{"helper call", func(b *prog.Builder, main *prog.ProcBuilder) {
		h := b.Proc("helper")
		h.Straight(mem)
		arms(0.5, alu, fpu)(h)
		h.Ret()
		main.Loop(50, func(pb *prog.ProcBuilder) { pb.CallProc("helper") })
	}, []bool{true}},
	{"helper call with a mark", func(b *prog.Builder, main *prog.ProcBuilder) {
		h := b.Proc("marked")
		h.Emit(isa.Instruction{Op: isa.PhaseMark, MarkID: 0})
		h.Straight(mem)
		arms(0.5, alu, fpu)(h)
		h.Ret()
		main.Loop(50, func(pb *prog.ProcBuilder) { pb.Straight(alu).CallProc("marked") })
		main.Emit(isa.Instruction{Op: isa.PhaseMark, MarkID: 1})
		main.Loop(50, func(pb *prog.ProcBuilder) { arms(0.4, mem, alu)(pb) })
	}, []bool{false, true}},
	{"syscall in body", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(25, func(pb *prog.ProcBuilder) {
			pb.Straight(alu).Syscall()
			arms(0.5, mem, fpu)(pb)
		})
	}, []bool{true}},
	{"head shared by two latches", func(_ *prog.Builder, main *prog.ProcBuilder) {
		head := main.Here()
		main.Straight(alu)
		main.BranchCounted(head, 3)
		arms(0.5, mem, fpu)(main)
		main.BranchCounted(head, 4)
	}, []bool{false, false}},
	{"nested counted loop", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(6, func(pb *prog.ProcBuilder) {
			pb.Straight(fpu)
			pb.Loop(9, func(pb *prog.ProcBuilder) { pb.Straight(alu); arms(0.7, mem, alu)(pb) })
		})
	}, []bool{true, false}},
	{"return inside body", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(80, func(pb *prog.ProcBuilder) {
			pb.Straight(alu)
			pb.IfElse(0.02, func(pb *prog.ProcBuilder) { pb.Emit(isa.Instruction{Op: isa.Ret}) }, nil)
		})
	}, []bool{false}},
	{"body over the path cap", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(20, func(pb *prog.ProcBuilder) {
			for i := 0; i < 5; i++ { // 2^5 paths
				arms(0.5, alu, mem)(pb)
			}
		})
	}, []bool{false}},
	{"body at the path cap", func(_ *prog.Builder, main *prog.ProcBuilder) {
		main.Loop(20, func(pb *prog.ProcBuilder) {
			for i := 0; i < 4; i++ { // 2^4 paths
				arms(0.5, alu, mem)(pb)
			}
		})
	}, []bool{true}},
}

// shapeImage builds a shape's image. Phase marks in the program get a mark
// table, so the ledger can attribute them.
func shapeImage(t *testing.T, s batchShape) *exec.Image {
	t.Helper()
	b := prog.NewBuilder(s.name)
	main := b.Proc("main")
	b.SetEntry("main")
	s.build(b, main)
	main.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var bin *instrument.Binary
	for _, proc := range p.Procs {
		for _, in := range proc.Instrs {
			if in.Op != isa.PhaseMark {
				continue
			}
			if bin == nil {
				bin = &instrument.Binary{Prog: p}
			}
			for len(bin.Marks) <= in.MarkID {
				id := len(bin.Marks)
				bin.Marks = append(bin.Marks, instrument.Mark{ID: id, Type: phase.Type(id % 2)})
			}
		}
	}
	img, err := exec.NewImage(p, bin, exec.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestBatchShapes pins which counted loops batch on hand-built shapes, and
// that RunBurst equals the Step loop on every shape at random budgets, on
// every core type of the three-type machine.
func TestBatchShapes(t *testing.T) {
	machine := amp.Hex2Big2Medium2Little()
	cm := exec.DefaultCostModel()
	pars := exec.ParamsFor(cm, machine)
	fastPs := pars[0].PsPerCycle
	for _, p := range pars {
		fastPs = min(fastPs, p.PsPerCycle)
	}
	tables := exec.NewCostTables()
	r := rng.New(2024)
	for _, s := range batchShapes {
		img := shapeImage(t, s)
		var got []bool
		for _, l := range img.Latches() {
			got = append(got, l.Batched)
		}
		if !slices.Equal(got, s.batched) {
			t.Errorf("%s: batched latches %v, want %v", s.name, got, s.batched)
		}
		for ti := range pars {
			par := &pars[ti]
			core := machine.CoresOfType(par.Type)[0]
			share := machine.L2s[machine.Cores[core].L2].SizeKB / float64(1+r.Intn(3))
			budgets := []int64{1 + int64(r.Intn(40)), 1 + int64(r.Intn(400)), 1 + int64(r.Intn(4000)), 1 + int64(r.Intn(40000))}
			t.Run(fmt.Sprintf("%s/type%d", s.name, ti), func(t *testing.T) {
				lane := tables.LaneFor(exec.NewProcess(0, img, &cm, 0, nil), par, share, fastPs)
				compareBursts(t, img, &cm, lane, par, core, share, fastPs, budgets)
			})
		}
	}
}
