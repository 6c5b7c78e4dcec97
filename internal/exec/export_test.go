package exec

import (
	"reflect"
	"slices"
)

// Position returns the block the process executes next.
func (p *Process) Position() (proc, block int32) { return p.curProc, p.curBlock }

// SameControl reports whether a and b agree on all control state a step
// that executed block (proc, block) can change: the program counter, the
// call stack, that block's loop-counter cell (the only cell a step
// writes), the branch rng's stream position, the exit flag and the mark
// count.
func SameControl(a, b *Process, proc, block int32) bool {
	return a.curProc == b.curProc && a.curBlock == b.curBlock &&
		slices.Equal(a.stack, b.stack) &&
		a.loopCell(proc, block) == b.loopCell(proc, block) &&
		*a.rand == *b.rand && a.exited == b.exited &&
		a.MarksExecuted == b.MarksExecuted
}

// SameLoopCounts reports whether a and b hold identical loop-counter state.
func SameLoopCounts(a, b *Process) bool { return reflect.DeepEqual(a.loopCounts, b.loopCounts) }

// loopCell reads a loop-counter cell without allocating it.
func (p *Process) loopCell(proc, block int32) int32 {
	if p.loopCounts == nil || p.loopCounts[proc] == nil {
		return 0
	}
	return p.loopCounts[proc][block]
}
