package obs

import (
	"fmt"
	"strings"
)

// This file is the build-tag-free half of the counter core, the one
// counter store: the merged CoreStats type and its derived numbers.
// Every table layout feeds it (WordTable, CompactTable and PtrTable
// directly, ShardedTable and GrowTable through their WordTables), as do
// GrowTable resizes, the sharded bulk partition and the worker pool.
//
// The core is ON in default builds and compiled out with -tags nostats
// (the overhead gate's A/B build) unless -tags obs is also set: an obs
// Snapshot reads its counts from the core. Hooks are named Core* —
// never Record* — so `make obs-sizecheck`'s assertion that untagged
// binaries carry no Record* symbol holds verbatim, and `make
// tune-sizecheck` asserts the core's sinks vanish under -tags nostats.
//
// Determinism contract: every CoreStats field is a sum or a max over
// per-completed-operation contributions, so for a fixed multiset of
// completed operations the merged totals are independent of schedule,
// worker count and stripe assignment — sums and maxes are commutative.
// Probe-step counters are one exception: concurrent CAS traffic can
// lengthen individual probes, so step totals are schedule-dependent
// wherever workers share cells (they are schedule-independent for
// sharded bulk calls run alone, where each shard's run is probed by one
// worker in a fixed order; TestShardedBulkProbeStepsScheduleIndependent
// checks this). The pool worker-participation counters are the other:
// which participant ran a block is the schedule itself. No counter or
// gauge feeds back into table construction: layouts depend only on the
// element set, the capacity and explicit options.
type CoreStats struct {
	// Probe-path operation and step totals, from every layout: the
	// per-element API publishes once per op, the bulk kernels once per
	// block or shard run.
	InsertOps        uint64
	InsertProbeSteps uint64
	FindOps          uint64
	FindProbeSteps   uint64
	FindHits         uint64
	DeleteOps        uint64
	DeleteProbeSteps uint64

	// GrowTable resizes and the elements they rehashed: grow traffic,
	// never counted in InsertOps.
	GrowEvents     uint64
	GrowCellsMoved uint64

	// Sharded bulk kernels (radix partition, one worker per shard run).
	ShardBulkCalls uint64
	ShardBulkRuns  uint64
	ShardBulkElems uint64

	// MaxShardImbalancePm is the worst per-mille shard imbalance seen by
	// any sharded bulk partition: max-run-length * shards * 1000 / total
	// (1000 = perfectly balanced). A max over schedule-independent
	// per-call values, so itself schedule-independent for a fixed multiset
	// of bulk calls.
	MaxShardImbalancePm uint64

	// Parallel pool dispatch counters: pooled loop dispatches, blocks
	// dispatched and items (iterations) covered. Their ratios are the
	// dispatch-cost signal: items/dispatch says how big the loops are,
	// blocks/dispatch how finely they were split.
	ParDispatches uint64
	ParBlocks     uint64
	ParItems      uint64

	// Pool worker participations, recorded once per participation:
	// blocks run by pool workers rather than the dispatching goroutine
	// (ParHelperBlocks/ParBlocks is the helpers' share of the work),
	// participations that found their job while spinning, and those
	// that began from a park on the token channel (counted at the wake).
	ParHelperBlocks uint64
	ParSpinHits     uint64
	ParParks        uint64
}

// OpCounts is the schedule-independent subset of the core: for a fixed
// workload these totals are identical across seeds, worker counts and
// fault profiles (the detres op-count oracle asserts this). Probe steps
// are deliberately excluded — they measure the schedule.
type OpCounts struct {
	InsertOps uint64
	FindOps   uint64
	FindHits  uint64
	DeleteOps uint64
}

// Ops returns the schedule-independent operation counts.
func (s CoreStats) Ops() OpCounts {
	return OpCounts{InsertOps: s.InsertOps, FindOps: s.FindOps, FindHits: s.FindHits, DeleteOps: s.DeleteOps}
}

// MeanProbe returns the mean probe distance of the class ("insert",
// "find", "delete"): the exact step total over the op count.
func (s CoreStats) MeanProbe(class string) float64 {
	var steps, ops uint64
	switch class {
	case "insert":
		steps, ops = s.InsertProbeSteps, s.InsertOps
	case "find":
		steps, ops = s.FindProbeSteps, s.FindOps
	case "delete":
		steps, ops = s.DeleteProbeSteps, s.DeleteOps
	}
	if ops == 0 {
		return 0
	}
	return float64(steps) / float64(ops)
}

// Sub returns the window s minus prev for the additive counters; the
// MaxShardImbalancePm gauge keeps s's value (a cumulative max cannot be
// windowed). Use it for per-round deltas in soak reporting.
func (s CoreStats) Sub(prev CoreStats) CoreStats {
	return CoreStats{
		InsertOps:           s.InsertOps - prev.InsertOps,
		InsertProbeSteps:    s.InsertProbeSteps - prev.InsertProbeSteps,
		FindOps:             s.FindOps - prev.FindOps,
		FindProbeSteps:      s.FindProbeSteps - prev.FindProbeSteps,
		FindHits:            s.FindHits - prev.FindHits,
		DeleteOps:           s.DeleteOps - prev.DeleteOps,
		DeleteProbeSteps:    s.DeleteProbeSteps - prev.DeleteProbeSteps,
		GrowEvents:          s.GrowEvents - prev.GrowEvents,
		GrowCellsMoved:      s.GrowCellsMoved - prev.GrowCellsMoved,
		ShardBulkCalls:      s.ShardBulkCalls - prev.ShardBulkCalls,
		ShardBulkRuns:       s.ShardBulkRuns - prev.ShardBulkRuns,
		ShardBulkElems:      s.ShardBulkElems - prev.ShardBulkElems,
		MaxShardImbalancePm: s.MaxShardImbalancePm,
		ParDispatches:       s.ParDispatches - prev.ParDispatches,
		ParBlocks:           s.ParBlocks - prev.ParBlocks,
		ParItems:            s.ParItems - prev.ParItems,
		ParHelperBlocks:     s.ParHelperBlocks - prev.ParHelperBlocks,
		ParSpinHits:         s.ParSpinHits - prev.ParSpinHits,
		ParParks:            s.ParParks - prev.ParParks,
	}
}

// String renders a compact one-line summary (phload soak summaries and
// phserver drain reports).
func (s CoreStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: insert ops=%d mean-probe=%.3f; find ops=%d hits=%d mean-probe=%.3f; delete ops=%d mean-probe=%.3f",
		s.InsertOps, s.MeanProbe("insert"), s.FindOps, s.FindHits, s.MeanProbe("find"),
		s.DeleteOps, s.MeanProbe("delete"))
	if s.GrowEvents > 0 {
		fmt.Fprintf(&b, "; grow events=%d moved=%d", s.GrowEvents, s.GrowCellsMoved)
	}
	if s.ShardBulkCalls > 0 {
		fmt.Fprintf(&b, "; shard-bulk calls=%d runs=%d elems=%d imbalance=%d.%03dx",
			s.ShardBulkCalls, s.ShardBulkRuns, s.ShardBulkElems,
			s.MaxShardImbalancePm/1000, s.MaxShardImbalancePm%1000)
	}
	if s.ParDispatches > 0 {
		fmt.Fprintf(&b, "; pool dispatches=%d blocks=%d items=%d helper-blocks=%d spin-hits=%d parks=%d",
			s.ParDispatches, s.ParBlocks, s.ParItems, s.ParHelperBlocks, s.ParSpinHits, s.ParParks)
	}
	return b.String()
}
