// Per-lane block cost tables. A block's price depends only on its image
// and on the pricing environment it runs under — (core-type parameters,
// effective cache share, syscall cost, fastest clock) — so the kernel
// prices every step from a table built once per environment instead of
// redoing the cache-model float math on every step. A table is a *lane*.
//
// The tables are built from the same bodyCycles / bodyIdealPs helpers
// Process.Step calls, so table-priced and Step-priced runs charge every
// block identically by construction (the reference test in
// tables_test.go pins it step by step).
//
// Concurrency follows the ImageCache singleflight idiom: lanes are
// immutable once published, lookups take a read lock, and a lane is built
// once under the write lock.
package exec

import (
	"math"
	"sync"
	"sync/atomic"
)

// laneKey identifies a pricing environment: runs that agree on every field
// price every block identically and may share a table. Images are
// compared by identity — the ImageCache already dedupes them by content,
// so identity equality is content equality within a process. The flip side:
// cross-run table reuse requires the runs to draw images from one shared
// cache; runs that re-prepare their own images land in fresh lanes.
// Sessions, sweeps, and dist workers all pair the store with a shared cache.
type laneKey struct {
	img         *Image
	par         CoreParams
	shareBits   uint64 // math.Float64bits of the effective cache share
	syscallBits uint64 // math.Float64bits of the cost model's syscall cost
	fastPs      int64  // fastest clock, prices the ledger counterfactual
}

// blockCost is one block's precomputed pricing under a lane.
type blockCost struct {
	ic       int64 // body cycles (identical to Step's truncation)
	actualPs int64 // ic × PsPerCycle
	idealPs  int64 // fastest-clock counterfactual picoseconds
}

// Lane is one pricing environment's block cost table, indexed
// [procedure][block]. Immutable once published.
type Lane struct {
	par     CoreParams
	shareKB float64
	cost    [][]blockCost
}

// CostTables is a store of lanes, safe for concurrent use by every run of
// a sweep. The kernel builds a private store for a run given none.
type CostTables struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	priced atomic.Uint64

	mu    sync.RWMutex
	lanes map[laneKey]*Lane
}

// NewCostTables creates an empty table store.
func NewCostTables() *CostTables {
	return &CostTables{lanes: map[laneKey]*Lane{}}
}

// TableStats is a point-in-time snapshot of a table store. Its field names
// are those of the segment memo the store replaced (the public MemoStats
// alias); the two fields describing replayed chunks are always zero.
type TableStats struct {
	// Lanes counts the tables built. Chunks is always 0.
	Lanes, Chunks int
	// Hits and Misses count lane lookups (one per dispatch burst) that
	// found a table or built one.
	Hits, Misses uint64
	// RecordedSteps counts the block prices computed while tables were
	// built. ReplayedSteps is always 0.
	ReplayedSteps, RecordedSteps uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s TableStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the store's counters; a nil store reports zeros.
func (c *CostTables) Stats() TableStats {
	if c == nil {
		return TableStats{}
	}
	c.mu.RLock()
	lanes := len(c.lanes)
	c.mu.RUnlock()
	return TableStats{
		Lanes:         lanes,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		RecordedSteps: c.priced.Load(),
	}
}

// LaneFor resolves (building on first use) the lane for a process's image
// under the given pricing environment. Called once per dispatch burst.
func (c *CostTables) LaneFor(p *Process, par *CoreParams, shareKB float64, fastPs int64) *Lane {
	key := laneKey{
		img:         p.Img,
		par:         *par,
		shareBits:   math.Float64bits(shareKB),
		syscallBits: math.Float64bits(p.cm.SyscallCycles),
		fastPs:      fastPs,
	}
	c.mu.RLock()
	l := c.lanes[key]
	c.mu.RUnlock()
	if l != nil {
		c.hits.Add(1)
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l = c.lanes[key]; l != nil {
		c.hits.Add(1)
		return l
	}
	l = &Lane{par: *par, shareKB: shareKB, cost: make([][]blockCost, len(p.Img.blocks))}
	priced := 0
	for proc := range p.Img.blocks {
		row := make([]blockCost, len(p.Img.blocks[proc]))
		for b := range row {
			info := &p.Img.blocks[proc][b]
			ic := bodyCycles(info, par, p.cm.SyscallCycles, shareKB)
			row[b] = blockCost{
				ic:       ic,
				actualPs: ic * par.PsPerCycle,
				idealPs:  bodyIdealPs(info, par, ic, shareKB, fastPs),
			}
		}
		l.cost[proc] = row
		priced += len(row)
	}
	c.lanes[key] = l
	c.misses.Add(1)
	c.priced.Add(uint64(priced))
	return l
}

// StepLane is Step with the block cost read from the lane's table (no
// per-step float math). The kernel prices every step this way; results
// are identical to Step by construction.
func (p *Process) StepLane(lane *Lane, coreID int) StepResult {
	info := &p.Img.blocks[p.curProc][p.curBlock]
	var res StepResult
	if len(info.markIDs) > 0 {
		p.execMarks(info, &lane.par, coreID, &res)
	}
	bc := &lane.cost[p.curProc][p.curBlock]
	if p.Work != nil {
		p.Work.Add(bc.actualPs, bc.idealPs)
	}
	p.Counters.Add(uint64(info.instrs), uint64(bc.ic))
	if info.memRefs > 0 {
		p.Counters.AddMem(uint64(info.memRefs))
	}
	res.Cycles += bc.ic

	p.advanceControl(info, &res)
	return res
}
