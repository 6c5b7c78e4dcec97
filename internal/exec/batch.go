// Counted-loop iteration batching. Almost every block a run executes sits
// in a counted loop whose body is a handful of blocks: a phase body is
// `head (IfElse 0.5) → arm → latch`, or a call to a helper built the same
// way. Such an iteration has only a few paths, each path's price under a
// lane is a fixed sum of integer block costs, and which path runs is
// decided by the branch draws alone. So Process.RunBurst can run a whole
// iteration at once — draw the same rng values in the same order as
// per-step execution, add the chosen path's integer sums — without
// changing a single counter, ledger picosecond or rng position.
//
// A counted loop is batched when
//   - no other branch targets its head, so a block heads at most one plan;
//   - every head→latch path is mark-free (no hook can fire inside an
//     iteration), holds no other counted branch (the latch's trip counter
//     is the only loop state an iteration writes), and returns from every
//     call it makes before the latch (the call stack is unchanged);
//   - the paths fit the two caps below; a body with a probabilistic back
//     edge (a geometric loop inside) has unbounded paths and never fits.
package exec

import "slices"

const (
	// maxBatchPaths caps the head→latch paths of a batched loop body.
	maxBatchPaths = 16
	// maxBatchLen caps the blocks on one head→latch path.
	maxBatchLen = 64
)

// blockRef names one block of the image.
type blockRef struct{ proc, block int32 }

// batchPlan is one batched counted loop: a decision tree over the body's
// probabilistic branches whose leaves are the head→latch paths.
type batchPlan struct {
	proc, head, latch int32
	trip              int32 // the latch's trip count
	exit              int32 // the latch's fallthrough, taken after the last trip
	// root is the tree's entry; a ref >= 0 indexes nodes, a ref < 0 is
	// ^path.
	root  int32
	nodes []batchNode
	// paths lists each path's blocks in execution order; the latch is last.
	paths [][]blockRef
}

// batchNode is one probabilistic branch of a batched body.
type batchNode struct {
	takenProb   float64
	taken, fall int32 // child refs, encoded like batchPlan.root
}

// pathCost is the price of a run of blocks under a lane — one batched
// path, or a burst's unpublished charges: the integer sums of the blocks'
// instructions, memory references, cycles and ideal picoseconds. Their
// actual picoseconds are ic × PsPerCycle. Four fields, so a local
// pathCost lives in registers.
type pathCost struct {
	instrs, memRefs uint64
	ic, idealPs     int64
}

// plus returns the sum of two prices.
func (c pathCost) plus(d pathCost) pathCost {
	return pathCost{c.instrs + d.instrs, c.memRefs + d.memRefs, c.ic + d.ic, c.idealPs + d.idealPs}
}

// lanePlan is a batch plan priced under a lane.
type lanePlan struct {
	// maxPrefix is the most cycles any path spends before its latch: an
	// iteration started with used+maxPrefix < budget cannot end the burst
	// before its last block.
	maxPrefix int64
	paths     []pathCost
}

// planBatches builds the batch plan of every batchable counted loop and
// links each plan's head block to it.
func (img *Image) planBatches() {
	for pi, infos := range img.blocks {
		targeted := make([]int, len(infos))
		for i := range infos {
			if infos[i].kind == termBranch {
				targeted[infos[i].taken]++
			}
		}
		for li := range infos {
			latch := &infos[li]
			if latch.kind != termBranch || latch.tripCount == 0 || targeted[latch.taken] != 1 {
				continue
			}
			plan := batchPlan{
				proc: int32(pi), head: latch.taken, latch: int32(li),
				trip: latch.tripCount, exit: latch.fall,
			}
			root, ok := plan.walk(img.blocks, plan.proc, plan.head, nil, nil)
			if !ok {
				continue
			}
			plan.root = root
			infos[plan.head].batch = int32(len(img.plans))
			img.plans = append(img.plans, plan)
		}
	}
}

// walk follows every path from (proc, block), given the return stack and
// the path so far, and returns the reference of the subtree it built, or
// false when some path breaks a batching rule. The walk is depth-first:
// a subtree appends to the path past the blocks its caller owns, and a
// leaf keeps a copy. The stack grows only through a full slice
// expression, so sibling subtrees never share frames.
func (plan *batchPlan) walk(blocks [][]blockInfo, proc, block int32, stack []frame, path []blockRef) (int32, bool) {
	for {
		info := &blocks[proc][block]
		if len(path) == maxBatchLen || len(info.markIDs) > 0 {
			return 0, false
		}
		path = append(path, blockRef{proc, block})
		switch info.kind {
		case termFall:
			block = info.fall
		case termCall:
			stack = append(stack[:len(stack):len(stack)], frame{proc: proc, block: info.fall})
			proc, block = info.callee, 0
		case termRet:
			if len(stack) == 0 {
				return 0, false // returns from the loop's procedure
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			proc, block = top.proc, top.block
		case termBranch:
			if info.tripCount > 0 {
				if proc != plan.proc || block != plan.latch || len(stack) > 0 || len(plan.paths) == maxBatchPaths {
					return 0, false
				}
				plan.paths = append(plan.paths, slices.Clone(path))
				return ^int32(len(plan.paths) - 1), true
			}
			n := int32(len(plan.nodes))
			plan.nodes = append(plan.nodes, batchNode{takenProb: info.takenProb})
			taken, ok := plan.walk(blocks, proc, info.taken, stack, path)
			if !ok {
				return 0, false
			}
			fall, ok := plan.walk(blocks, proc, info.fall, stack, path)
			if !ok {
				return 0, false
			}
			plan.nodes[n].taken, plan.nodes[n].fall = taken, fall
			return n, true
		}
	}
}

// price sums a plan's paths over a lane's block costs.
func (plan *batchPlan) price(blocks [][]blockInfo, cost [][]blockCost) lanePlan {
	lp := lanePlan{paths: make([]pathCost, len(plan.paths))}
	for i, path := range plan.paths {
		pc := &lp.paths[i]
		for j, ref := range path {
			info, bc := &blocks[ref.proc][ref.block], &cost[ref.proc][ref.block]
			*pc = pc.plus(pathCost{uint64(info.instrs), uint64(info.memRefs), bc.ic, bc.idealPs})
			if j == len(path)-1 {
				lp.maxPrefix = max(lp.maxPrefix, pc.ic-bc.ic)
			}
		}
	}
	return lp
}
