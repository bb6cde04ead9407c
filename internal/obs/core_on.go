//go:build !nostats

package obs

import (
	"sync/atomic"

	"phasehash/internal/atomicx"
)

// CoreEnabled reports whether this binary carries the always-on counter
// core. It is true in default builds and false under -tags nostats; like
// Enabled it is a constant, so `if obs.CoreEnabled { ... }` call sites
// vanish from the nostats A/B build the overhead gate measures against.
const CoreEnabled = true

const (
	// coreStripes is the number of padded core sinks. Stripe selection
	// follows the obs sinks: table hooks pass the operation's home-cell
	// index (an identity already in a register), pool hooks a fixed
	// stripe. Must be a power of two.
	coreStripes    = 64
	coreStripeMask = coreStripes - 1

	coreNumCounters = 15 // additive CoreStats fields (gauge excluded)
)

// Indices into coreSink.c. Kept as plain consts (not a type): they never
// leave this file. The gauge (MaxShardImbalancePm) lives outside the
// stripes as a WriteMax word.
const (
	cInsertOps = iota
	cInsertSteps
	cFindOps
	cFindSteps
	cFindHits
	cDeleteOps
	cDeleteSteps
	cGrowEvents
	cGrowCells
	cShardBulkCalls
	cShardBulkRuns
	cShardBulkElems
	cParDispatches
	cParBlocks
	cParItems
)

// coreSink is one stripe of always-on counters, padded to a cache-line
// multiple so adjacent stripes never share a line (64-byte lines; 15
// words round to 2 lines with 1 word of pad).
type coreSink struct {
	c [coreNumCounters]atomic.Uint64
	_ [(64 - (coreNumCounters*8)%64) % 64]byte
}

var (
	coreSinks [coreStripes]coreSink

	// coreImbalancePm is the always-on shard-imbalance WriteMax gauge
	// (per-mille, 1000 = balanced).
	coreImbalancePm uint64
)

// CoreInsert publishes a batch of completed insert operations: ops
// completed and probe steps walked. Bulk kernels batch a whole block
// into one call; the per-element API passes ops=1. stripe is any value
// already at hand that varies across concurrent callers (the home-cell
// index).
func CoreInsert(stripe int, ops, steps uint64) {
	s := &coreSinks[stripe&coreStripeMask]
	s.c[cInsertOps].Add(ops)
	s.c[cInsertSteps].Add(steps)
}

// CoreFind publishes a batch of completed find operations.
func CoreFind(stripe int, ops, steps, hits uint64) {
	s := &coreSinks[stripe&coreStripeMask]
	s.c[cFindOps].Add(ops)
	s.c[cFindSteps].Add(steps)
	if hits != 0 {
		s.c[cFindHits].Add(hits)
	}
}

// CoreDelete publishes a batch of completed delete operations.
func CoreDelete(stripe int, ops, steps uint64) {
	s := &coreSinks[stripe&coreStripeMask]
	s.c[cDeleteOps].Add(ops)
	s.c[cDeleteSteps].Add(steps)
}

// CoreGrow publishes one GrowTable resize and the elements it rehashed.
func CoreGrow(moved uint64) {
	s := &coreSinks[2]
	s.c[cGrowEvents].Add(1)
	s.c[cGrowCells].Add(moved)
}

// CoreShardBulk publishes one sharded bulk-kernel partition from its
// offsets (len = shards+1): call/run/element totals plus the imbalance
// gauge max-run * shards * 1000 / total. The gauge input is a pure
// function of the partitioned keys and the shard count, so the running
// max is schedule-independent for a fixed multiset of bulk calls.
func CoreShardBulk(offsets []int) {
	shards := len(offsets) - 1
	if shards <= 0 {
		return
	}
	total := offsets[shards] - offsets[0]
	runs, maxRun := 0, 0
	for i := 0; i < shards; i++ {
		n := offsets[i+1] - offsets[i]
		if n > 0 {
			runs++
		}
		if n > maxRun {
			maxRun = n
		}
	}
	s := &coreSinks[1]
	s.c[cShardBulkCalls].Add(1)
	s.c[cShardBulkRuns].Add(uint64(runs))
	s.c[cShardBulkElems].Add(uint64(total))
	if total > 0 {
		atomicx.WriteMax(&coreImbalancePm, uint64(maxRun)*uint64(shards)*1000/uint64(total))
	}
}

// CoreDispatch counts one pooled loop dispatch, its block count and the
// loop length it covers.
func CoreDispatch(nblocks, items int) {
	s := &coreSinks[0]
	s.c[cParDispatches].Add(1)
	s.c[cParBlocks].Add(uint64(nblocks))
	s.c[cParItems].Add(uint64(items))
}

// CoreMaxShardImbalancePm returns the current imbalance gauge without
// merging the stripes. It is a reported number only (operator
// summaries, the benchmark's per-layer metric); no table construction
// reads it.
func CoreMaxShardImbalancePm() uint64 { return atomicx.Load(&coreImbalancePm) }

// CoreSnapshot merges every stripe into one CoreStats. Merging is pure
// addition (plus one gauge load), so the result does not depend on which
// stripe recorded what. Take snapshots at quiescence; a racing snapshot
// is safe but may be torn across counters.
func CoreSnapshot() CoreStats {
	var s CoreStats
	for i := range coreSinks {
		c := &coreSinks[i].c
		s.InsertOps += c[cInsertOps].Load()
		s.InsertProbeSteps += c[cInsertSteps].Load()
		s.FindOps += c[cFindOps].Load()
		s.FindProbeSteps += c[cFindSteps].Load()
		s.FindHits += c[cFindHits].Load()
		s.DeleteOps += c[cDeleteOps].Load()
		s.DeleteProbeSteps += c[cDeleteSteps].Load()
		s.GrowEvents += c[cGrowEvents].Load()
		s.GrowCellsMoved += c[cGrowCells].Load()
		s.ShardBulkCalls += c[cShardBulkCalls].Load()
		s.ShardBulkRuns += c[cShardBulkRuns].Load()
		s.ShardBulkElems += c[cShardBulkElems].Load()
		s.ParDispatches += c[cParDispatches].Load()
		s.ParBlocks += c[cParBlocks].Load()
		s.ParItems += c[cParItems].Load()
	}
	s.MaxShardImbalancePm = atomicx.Load(&coreImbalancePm)
	return s
}

// CoreReset zeroes every core sink and the imbalance gauge. Benchmark
// drivers reset between cells so one distribution's skew cannot leak
// into the next cell's tuning inputs.
func CoreReset() {
	for i := range coreSinks {
		for j := range coreSinks[i].c {
			coreSinks[i].c[j].Store(0)
		}
	}
	atomicx.Store(&coreImbalancePm, 0)
}
