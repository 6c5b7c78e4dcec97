package exec_test

import (
	"testing"
	"time"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/osched"
	"phasetune/internal/prog"
	"phasetune/internal/workload"
)

// BenchmarkRunBurst reports ns per executed block for the kernel's burst
// interpreter (RunBurst) and for the Step loop it must equal, on a suite
// image, whose blocks run almost all in batched iterations, and on an
// image whose only loop is geometric and never batches. One op runs a
// fresh process for benchBurstCycles cycles in timeslice-sized bursts on a
// fast core.
func BenchmarkRunBurst(b *testing.B) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	suite, err := workload.Suite(cm, machine)
	if err != nil {
		b.Fatal(err)
	}
	suiteImg, err := exec.NewImage(suite[0].Prog, nil, cm)
	if err != nil {
		b.Fatal(err)
	}
	geo := prog.NewBuilder("geometric")
	geo.Proc("main").LoopGeometric(1e9, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 8, Load: 4, Store: 2, WorkingSetKB: 8192, Locality: 0.5})
		arms(0.5, alu, fpu)(pb)
	}).Ret()
	geoImg, err := exec.NewImage(geo.MustBuild(), nil, cm)
	if err != nil {
		b.Fatal(err)
	}
	par := &exec.ParamsFor(cm, machine)[0]
	share := machine.L2s[0].SizeKB
	slice := int64(osched.DefaultConfig().TimesliceSec * par.CyclesPerSec)
	lanes := exec.NewCostTables()
	for _, img := range []struct {
		name string
		img  *exec.Image
	}{{"suite", suiteImg}, {"nonbatchable", geoImg}} {
		lane := lanes.LaneFor(exec.NewProcess(0, img.img, &cm, 0, nil), par, share, par.PsPerCycle)
		// The Step loop counts the blocks one op executes; RunBurst
		// executes the same ones.
		blocks := stepOp(img.img, &cm, par, share, slice)
		b.Run(img.name+"/step", func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				stepOp(img.img, &cm, par, share, slice)
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*blocks), "ns/block")
		})
		b.Run(img.name+"/burst", func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p := exec.NewProcess(1, img.img, &cm, 1, nil)
				aff := uint64(1)
				for cycles := int64(0); cycles < benchBurstCycles && !p.Exited(); {
					cycles += p.RunBurst(lane, 0, 0, slice, &aff).Used
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*blocks), "ns/block")
		})
	}
}

// benchBurstCycles is the work of one BenchmarkRunBurst op.
const benchBurstCycles = 4e7

// stepOp is one BenchmarkRunBurst op through the Step loop under the
// kernel's stop rule; it returns the blocks executed.
func stepOp(img *exec.Image, cm *exec.CostModel, par *exec.CoreParams, share float64, slice int64) (blocks int) {
	p := exec.NewProcess(1, img, cm, 1, nil)
	for cycles := int64(0); cycles < benchBurstCycles && !p.Exited(); {
		used := int64(0)
		for used < slice && !p.Exited() {
			used += p.Step(par, 0, share).Cycles
			blocks++
		}
		cycles += used
	}
	return blocks
}
