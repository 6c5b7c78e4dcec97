package exec

import (
	"phasetune/internal/ledger"
	"phasetune/internal/perfcnt"
	"phasetune/internal/rng"
)

// MarkAction is what the tuning runtime asks for at a phase mark.
type MarkAction struct {
	// Mask, when non-zero, is the affinity mask the process requests
	// (the simulated sched_setaffinity call).
	Mask uint64
}

// MarkHook receives phase-mark events. The kernel installs the per-process
// tuning runtime here; overhead-measurement modes install cheaper hooks.
type MarkHook interface {
	// OnMark fires when the process executes the phase mark markID on core
	// coreID. Counter state is readable through p.Counters.
	OnMark(p *Process, markID int, coreID int) MarkAction
	// OnExit fires when the process terminates, so held resources (counter
	// event sets) can be released.
	OnExit(p *Process)
}

// QuantumHook is an optional extension of MarkHook: the kernel invokes it at
// the end of every scheduling quantum. The tuning runtime uses it to bound
// monitoring windows — a long code section between two phase marks contains
// many representative sub-sections, so a sample can be closed (and the next
// core type probed) without waiting for the next mark. This is the "simple
// feedback mechanism" extension the paper sketches in §VI-B.
type QuantumHook interface {
	MarkHook
	// OnQuantum fires after a scheduling quantum on core coreID; a non-zero
	// returned mask requests an affinity change, like a mark would.
	OnQuantum(p *Process, coreID int) MarkAction
}

// frame is a call-stack entry: where to resume in the caller.
type frame struct {
	proc, block int32
}

// StepResult reports one basic-block execution.
type StepResult struct {
	// Cycles consumed by the block (including mark payloads).
	Cycles int64
	// Exited reports program termination.
	Exited bool
	// WantMask, when non-zero, is an affinity-change request issued by a
	// phase mark in this block.
	WantMask uint64
}

// Process is one executing instance of an image.
type Process struct {
	// PID is the kernel-assigned process ID.
	PID int
	// Img is the executed image (shared, immutable).
	Img *Image
	// Counters is the virtualized performance-counter state.
	Counters perfcnt.Counters
	// Hook receives phase-mark events; nil disables mark processing beyond
	// cost accounting.
	Hook MarkHook
	// Work, when non-nil, accumulates per-step cycle attribution for the
	// run's ledger. The interpreter only writes to it — attribution never
	// feeds back into execution, so an attached Work cannot perturb a run.
	Work *ledger.Work

	cm   *CostModel
	rand *rng.Source

	curProc, curBlock int32
	stack             []frame
	exited            bool
	// loopCounts holds per-block counted-branch progress, allocated lazily
	// per procedure.
	loopCounts [][]int32

	// MarksExecuted counts dynamic phase-mark executions (diagnostics and
	// the time-overhead experiment).
	MarksExecuted uint64
}

// NewProcess creates a process at the image entry point. The seed drives
// branch outcomes, making every execution deterministic.
func NewProcess(pid int, img *Image, cm *CostModel, seed uint64, hook MarkHook) *Process {
	return &Process{
		PID:      pid,
		Img:      img,
		Hook:     hook,
		cm:       cm,
		rand:     rng.New(seed),
		curProc:  img.entry,
		curBlock: 0,
		stack:    make([]frame, 0, 64),
	}
}

// Exited reports whether the program has terminated.
func (p *Process) Exited() bool { return p.exited }

// SetSpilled records whether the placement engine currently holds the
// process off its chosen core type, so the ledger can charge subsequent
// asymmetry loss to the capacity-spill category. A no-op without a ledger.
func (p *Process) SetSpilled(s bool) {
	if p.Work != nil {
		p.Work.SetSpilled(s)
	}
}

// bodyCycles prices one execution of a block's body on a core with the
// given cache share. It is the single source of truth for block cost: Step
// calls it per step and the kernel's per-lane cost tables are built from
// it, so table-priced and Step-priced runs charge every block identically
// by construction. Products feeding additions are explicitly converted so
// the compiler cannot contract them into FMAs — the cross-architecture
// half of the determinism contract (DESIGN.md §13).
func bodyCycles(info *blockInfo, core *CoreParams, syscallCycles, shareKB float64) int64 {
	cycles := info.baseCycles
	if info.l1MissRefs > 0 {
		miss := info.profile.MissRatio(shareKB)
		cycles += float64(info.l1MissRefs * (core.L2HitCycles + float64(miss*core.MemCycles)))
	}
	if info.syscall {
		cycles += syscallCycles
	}
	ic := int64(cycles)
	if ic < 1 && info.instrs > 0 {
		ic = 1
	}
	return ic
}

// bodyIdealPs prices the block's fastest-clock counterfactual for the cycle
// ledger: the DRAM portion is wall-clock fixed (MemCycles ∝ frequency,
// PsPerCycle ∝ 1/frequency), so only the compute portion is repriced at the
// fastest clock. Truncated to integer picoseconds per block, so a table
// entry and Step's per-step price are the same integer.
func bodyIdealPs(info *blockInfo, core *CoreParams, ic int64, shareKB float64, fastPs int64) int64 {
	var memCycles float64
	if info.l1MissRefs > 0 {
		miss := info.profile.MissRatio(shareKB)
		memCycles = float64(info.l1MissRefs * float64(miss*core.MemCycles))
	}
	comp := float64(ic) - memCycles
	if comp < 0 {
		comp = 0
	}
	return int64(float64(comp*float64(fastPs)) + float64(memCycles*float64(core.PsPerCycle)))
}

// execMarks runs the phase marks at the top of a block: counter and ledger
// charges plus the tuning-runtime hook.
func (p *Process) execMarks(info *blockInfo, core *CoreParams, coreID int, res *StepResult) {
	for _, mid := range info.markIDs {
		p.Counters.Add(uint64(p.cm.MarkInstrs), uint64(p.cm.MarkCycles))
		res.Cycles += p.cm.MarkCycles
		p.MarksExecuted++
		if p.Work != nil {
			// The mark opens a phase: attribute the mark payload and the
			// block body that follows to the entered phase.
			p.Work.SetPhase(int(p.Img.MarkType(int(mid))))
			p.Work.AddMark(p.cm.MarkCycles * core.PsPerCycle)
		}
		if p.Hook != nil {
			act := p.Hook.OnMark(p, int(mid), coreID)
			if act.Mask != 0 {
				res.WantMask = act.Mask
			}
		}
	}
}

// Step executes the current basic block on a core with the given parameters
// and effective cache share, advances control flow, and returns the cost.
// Step must not be called after the process has exited.
func (p *Process) Step(core *CoreParams, coreID int, shareKB float64) StepResult {
	info := &p.Img.blocks[p.curProc][p.curBlock]
	var res StepResult

	// Phase marks run first: they sit at the top of the block.
	if len(info.markIDs) > 0 {
		p.execMarks(info, core, coreID, &res)
	}

	// Block body cost.
	ic := bodyCycles(info, core, p.cm.SyscallCycles, shareKB)
	if p.Work != nil {
		p.Work.Add(ic*core.PsPerCycle, bodyIdealPs(info, core, ic, shareKB, p.Work.FastPs()))
	}
	p.Counters.Add(uint64(info.instrs), uint64(ic))
	if info.memRefs > 0 {
		p.Counters.AddMem(uint64(info.memRefs))
	}
	res.Cycles += ic

	p.advanceControl(info, &res)
	return res
}

// advanceControl moves the program counter past the current block.
func (p *Process) advanceControl(info *blockInfo, res *StepResult) {
	switch info.kind {
	case termFall:
		p.curBlock = info.fall
	case termBranch:
		if info.tripCount > 0 {
			// Counted loop: taken tripCount-1 consecutive times, then fall
			// through once; the counter then resets for re-entry.
			c := p.loopCounter()
			*c++
			if *c < info.tripCount {
				p.curBlock = info.taken
			} else {
				*c = 0
				p.curBlock = info.fall
			}
		} else if p.rand.Float64() < info.takenProb {
			p.curBlock = info.taken
		} else {
			p.curBlock = info.fall
		}
	case termCall:
		p.stack = append(p.stack, frame{proc: p.curProc, block: info.fall})
		p.curProc = info.callee
		p.curBlock = 0
	case termRet:
		if len(p.stack) == 0 {
			p.exited = true
			res.Exited = true
			if p.Hook != nil {
				p.Hook.OnExit(p)
			}
			return
		}
		top := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		p.curProc = top.proc
		p.curBlock = top.block
	}
}

// loopCounter returns (allocating lazily) the counted-branch counter cell
// for the current block.
func (p *Process) loopCounter() *int32 {
	if p.loopCounts == nil {
		p.loopCounts = make([][]int32, len(p.Img.blocks))
	}
	if p.loopCounts[p.curProc] == nil {
		p.loopCounts[p.curProc] = make([]int32, len(p.Img.blocks[p.curProc]))
	}
	return &p.loopCounts[p.curProc][p.curBlock]
}

// RunIsolated executes the process to completion on a single core with a
// fixed cache share, returning total cycles. It is used for isolation
// timings (fairness metrics need per-process isolation runtimes) and tests.
// maxCycles bounds runaway programs (0 means no bound).
func (p *Process) RunIsolated(core *CoreParams, coreID int, shareKB float64, maxCycles int64) (cycles int64) {
	for !p.exited {
		r := p.Step(core, coreID, shareKB)
		cycles += r.Cycles
		if maxCycles > 0 && cycles >= maxCycles {
			break
		}
	}
	return cycles
}
