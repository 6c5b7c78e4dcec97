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
// charges plus the tuning-runtime hook. It returns the marks' cycles and the
// last affinity request a hook made (0 for none).
func (p *Process) execMarks(info *blockInfo, psPerCycle int64, coreID int) (cycles int64, want uint64) {
	for _, mid := range info.markIDs {
		p.Counters.Add(uint64(p.cm.MarkInstrs), uint64(p.cm.MarkCycles))
		cycles += p.cm.MarkCycles
		p.MarksExecuted++
		if p.Work != nil {
			// The mark opens a phase: attribute the mark payload and the
			// block body that follows to the entered phase.
			p.Work.SetPhase(int(p.Img.MarkType(int(mid))))
			p.Work.AddMark(p.cm.MarkCycles * psPerCycle)
		}
		if p.Hook != nil {
			act := p.Hook.OnMark(p, int(mid), coreID)
			if act.Mask != 0 {
				want = act.Mask
			}
		}
	}
	return cycles, want
}

// Step executes the current basic block on a core with the given parameters
// and effective cache share, advances control flow, and returns the cost.
// Step must not be called after the process has exited.
func (p *Process) Step(core *CoreParams, coreID int, shareKB float64) StepResult {
	info := &p.Img.blocks[p.curProc][p.curBlock]
	var res StepResult

	// Phase marks run first: they sit at the top of the block.
	if len(info.markIDs) > 0 {
		res.Cycles, res.WantMask = p.execMarks(info, core.PsPerCycle, coreID)
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

	var ok bool
	if p.curProc, p.curBlock, ok = p.next(info, p.curProc, p.curBlock); !ok {
		p.exit()
		res.Exited = true
	}
	return res
}

// next returns the block control reaches after info, the block at
// (proc, block), executes — advancing its loop counter, branch draw or call
// stack — or false when info returns from the entry procedure.
func (p *Process) next(info *blockInfo, proc, block int32) (int32, int32, bool) {
	switch info.kind {
	case termFall:
		return proc, info.fall, true
	case termBranch:
		if info.tripCount > 0 {
			// Counted loop: taken tripCount-1 consecutive times, then fall
			// through once; the counter then resets for re-entry.
			c := p.loopCounter(proc, block)
			if *c++; *c < info.tripCount {
				return proc, info.taken, true
			}
			*c = 0
			return proc, info.fall, true
		}
		if p.rand.Float64() < info.takenProb {
			return proc, info.taken, true
		}
		return proc, info.fall, true
	case termCall:
		p.stack = append(p.stack, frame{proc: proc, block: info.fall})
		return info.callee, 0, true
	default: // termRet
		if len(p.stack) == 0 {
			return proc, block, false
		}
		top := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		return top.proc, top.block, true
	}
}

// exit terminates the process and tells the hook.
func (p *Process) exit() {
	p.exited = true
	if p.Hook != nil {
		p.Hook.OnExit(p)
	}
}

// loopCounter returns (allocating lazily) the counted-branch counter cell
// of a block.
func (p *Process) loopCounter(proc, block int32) *int32 {
	if p.loopCounts == nil {
		p.loopCounts = make([][]int32, len(p.Img.blocks))
	}
	if p.loopCounts[proc] == nil {
		p.loopCounts[proc] = make([]int32, len(p.Img.blocks[proc]))
	}
	return &p.loopCounts[proc][block]
}

// BurstResult reports one dispatch burst.
type BurstResult struct {
	// Used is the cycles used when the burst ended: the used passed in plus
	// every executed block's body and mark cycles.
	Used int64
	// Exited reports program termination.
	Exited bool
	// Migrate reports that a phase mark moved the affinity mask off the
	// burst's core; the burst ended after that mark's block.
	Migrate bool
}

// RunBurst executes the process on core coreID, pricing every block from
// lane, for as long as used < budget — the kernel's stop rule: a burst
// runs whole blocks until its cycles reach the budget. The burst also ends
// on exit, and after a block whose phase mark moves *affinity off coreID.
// *affinity is the task's mask: a mark request updates it in place, so a
// hook later in the burst reads the current mask.
//
// The result equals a loop of Step calls under the same stop rule, at
// every burst end: counters, ledger segments, control state, loop
// counters and rng position. Where the current block heads a batched
// loop (batch.go) and the next iteration cannot cross the budget before
// its latch, whole iterations run at once; every other block runs one at
// a time. The program counter and the burst's charges stay in locals;
// the charges are published to the counters and the ledger before every
// hook and at burst end, so a hook observes exactly the state per-step
// execution would show it. RunBurst must not be called after the process
// has exited.
func (p *Process) RunBurst(lane *Lane, coreID int, used, budget int64, affinity *uint64) BurstResult {
	var sum pathCost // charges not yet published
	ran := false     // blocks ran since the last publish
	proc, block := p.curProc, p.curBlock
	infos, costs := p.Img.blocks[proc], lane.cost[proc]
	migrate := false
	for used < budget {
		info := &infos[block]
		if info.batch >= 0 {
			if lp := &lane.batch[info.batch]; used+lp.maxPrefix < budget {
				var batch pathCost
				used, block, batch = p.runBatch(&p.Img.plans[info.batch], lp, used, budget)
				sum, ran = sum.plus(batch), true
				continue
			}
		}
		var want uint64
		if len(info.markIDs) > 0 {
			if ran {
				p.publish(sum, lane.par.PsPerCycle)
				sum, ran = pathCost{}, false
			}
			p.curProc, p.curBlock = proc, block
			var mc int64
			mc, want = p.execMarks(info, lane.par.PsPerCycle, coreID)
			used += mc
		}
		bc := &costs[block]
		sum, ran = sum.plus(pathCost{uint64(info.instrs), uint64(info.memRefs), bc.ic, bc.idealPs}), true
		used += bc.ic

		if info.kind == termFall { // the commonest transfer, without the call
			block = info.fall
		} else {
			nproc, nblock, ok := p.next(info, proc, block)
			if !ok {
				p.publish(sum, lane.par.PsPerCycle)
				p.curProc, p.curBlock = proc, block
				p.exit()
				return BurstResult{Used: used, Exited: true}
			}
			if nproc != proc {
				proc = nproc
				infos, costs = p.Img.blocks[proc], lane.cost[proc]
			}
			block = nblock
		}
		if want != 0 && want != *affinity {
			*affinity = want
			if want&(1<<uint(coreID)) == 0 {
				migrate = true
				break
			}
		}
	}
	if ran {
		p.publish(sum, lane.par.PsPerCycle)
	}
	p.curProc, p.curBlock = proc, block
	return BurstResult{Used: used, Migrate: migrate}
}

// publish adds a burst's charges to the counters and, as one charge to the
// current ledger segment, to the ledger. Callers publish only after blocks
// ran, so a segment is opened exactly when per-step charging would open
// one.
func (p *Process) publish(c pathCost, psPerCycle int64) {
	p.Counters.Add(c.instrs, uint64(c.ic))
	p.Counters.AddMem(c.memRefs)
	if p.Work != nil {
		p.Work.Add(c.ic*psPerCycle, c.idealPs)
	}
}

// runBatch runs whole iterations of a batched loop from its head, while
// the next iteration cannot cross budget before its latch. It returns the
// cycles used, the block control reached — the head, or the loop's exit
// after its last trip — and the iterations' charges. Each iteration draws
// its branches in per-step order and adds one path's sums, so a burst
// never ends inside it.
func (p *Process) runBatch(plan *batchPlan, lp *lanePlan, used, budget int64) (int64, int32, pathCost) {
	cell := p.loopCounter(plan.proc, plan.latch)
	n := *cell
	r := *p.rand
	var sum pathCost
	block := plan.head
	for {
		ref := plan.root
		for ref >= 0 {
			nd := &plan.nodes[ref]
			if r.Float64() < nd.takenProb {
				ref = nd.taken
			} else {
				ref = nd.fall
			}
		}
		pc := lp.paths[^ref]
		sum = sum.plus(pc)
		used += pc.ic
		if n++; n >= plan.trip {
			n, block = 0, plan.exit
			break
		}
		if used+lp.maxPrefix >= budget {
			break
		}
	}
	*cell = n
	*p.rand = r
	return used, block, sum
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
