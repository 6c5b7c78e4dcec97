package exec

import (
	"bytes"
	"slices"
	"unsafe"
)

// Position returns the block the process executes next.
func (p *Process) Position() (proc, block int32) { return p.curProc, p.curBlock }

// SameControl reports whether a and b agree on the control state outside
// the loop counters: the program counter, the call stack, the branch rng's
// stream position, the exit flag and the mark count.
func SameControl(a, b *Process) bool {
	return a.curProc == b.curProc && a.curBlock == b.curBlock &&
		slices.Equal(a.stack, b.stack) &&
		*a.rand == *b.rand && a.exited == b.exited &&
		a.MarksExecuted == b.MarksExecuted
}

// SameLoopCounts reports whether a and b hold identical loop-counter state,
// down to which procedures' counter rows are allocated.
func SameLoopCounts(a, b *Process) bool {
	if (a.loopCounts == nil) != (b.loopCounts == nil) || len(a.loopCounts) != len(b.loopCounts) {
		return false
	}
	for i, ra := range a.loopCounts {
		rb := b.loopCounts[i]
		if (ra == nil) != (rb == nil) || len(ra) != len(rb) {
			return false
		}
		// Rows compare as bytes: one vectorized memory compare per row.
		if len(ra) > 0 && !bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&ra[0])), 4*len(ra)),
			unsafe.Slice((*byte)(unsafe.Pointer(&rb[0])), 4*len(rb))) {
			return false
		}
	}
	return true
}

// Latch is one counted branch of an image and whether its loop batches.
type Latch struct {
	Proc, Block int32
	Batched     bool
}

// Latches lists every counted branch of the image in (procedure, block)
// order.
func (img *Image) Latches() []Latch {
	var out []Latch
	for pi, infos := range img.blocks {
		for bi := range infos {
			if infos[bi].kind != termBranch || infos[bi].tripCount == 0 {
				continue
			}
			batched := false
			for _, plan := range img.plans {
				batched = batched || (plan.proc == int32(pi) && plan.latch == int32(bi))
			}
			out = append(out, Latch{Proc: int32(pi), Block: int32(bi), Batched: batched})
		}
	}
	return out
}

// MaxBatchPrefix returns the largest maxPrefix of the lane's batch plans
// (0 without plans).
func (l *Lane) MaxBatchPrefix() int64 {
	var m int64
	for _, lp := range l.batch {
		m = max(m, lp.maxPrefix)
	}
	return m
}

// BatchInterior returns a predicate reporting whether a process of img
// stands inside an iteration of a batched loop: on a block of some plan
// path other than its head.
func (img *Image) BatchInterior() func(*Process) bool {
	inside := make([][]bool, len(img.blocks))
	for pi := range inside {
		inside[pi] = make([]bool, len(img.blocks[pi]))
	}
	for _, plan := range img.plans {
		for _, path := range plan.paths {
			for _, ref := range path[1:] {
				inside[ref.proc][ref.block] = true
			}
		}
	}
	return func(p *Process) bool { return inside[p.curProc][p.curBlock] }
}
