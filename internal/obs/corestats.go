package obs

import (
	"fmt"
	"strings"
)

// This file is the build-tag-free half of the always-on counter core:
// the merged snapshot type and its derived gauges. The core is the
// minimal telemetry subset promoted out of the obs build tag so the
// operator summaries have schedule-independent numbers in every
// binary: striped operation/probe-step counters, the growing
// table's resize counters, the sharded bulk-kernel imbalance gauge, and
// the pool dispatch counters. Nothing else moved — histograms,
// CAS/displacement accounting, phase spans and the debug endpoint stay
// behind -tags obs.
//
// The core has its own off switch, inverted relative to obs: it is ON
// in default builds and compiled out with -tags nostats (the overhead
// gate's A/B build). Hooks are named Core* — never Record* — so `make
// obs-sizecheck`'s assertion that untagged binaries carry no Record*
// symbol keeps holding verbatim, and a parallel check asserts the Core*
// symbols vanish under -tags nostats.
//
// Determinism contract: every CoreStats
// field is a sum or a max over per-completed-operation contributions, so
// for a fixed multiset of completed operations the merged totals are
// independent of schedule, worker count and stripe assignment — sums and
// maxes are commutative. Probe-step counters are the one exception:
// concurrent CAS traffic can lengthen individual probes, so step totals
// are schedule-dependent wherever workers share cells (they are
// schedule-independent for sharded bulk calls run alone, where each
// shard's run is probed by one worker in a fixed order). The step
// counters exist for operators (phload soak summaries) and for the
// obs-free mean-probe gauge. No counter or gauge feeds back into table
// construction: layouts depend only on the element set, the capacity
// and explicit options.
type CoreStats struct {
	// Probe-path operation and step totals (WordTable probe loops;
	// bulk kernels publish once per block or shard run).
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
}

// OpsTotal returns the total probe-path operations recorded.
func (s CoreStats) OpsTotal() uint64 { return s.InsertOps + s.FindOps + s.DeleteOps }

// FindSharePm returns finds per mille of all probe-path operations
// (0 when none were recorded) — the op-mix input of the flat-vs-compact
// and shard policies, integer per-mille like every policy input.
func (s CoreStats) FindSharePm() uint64 {
	total := s.OpsTotal()
	if total == 0 {
		return 0
	}
	return s.FindOps * 1000 / total
}

// HitSharePm returns find hits per mille of find operations.
func (s CoreStats) HitSharePm() uint64 {
	if s.FindOps == 0 {
		return 0
	}
	return s.FindHits * 1000 / s.FindOps
}

// MeanProbePm returns the mean probe distance of the class ("insert",
// "find", "delete") in per-mille (1500 = 1.5 cells), integer arithmetic.
func (s CoreStats) MeanProbePm(class string) uint64 {
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
	return steps * 1000 / ops
}

// ItemsPerDispatch returns the mean parallel-loop length per pooled
// dispatch (0 when none were recorded) — the grain policy's input.
func (s CoreStats) ItemsPerDispatch() uint64 {
	if s.ParDispatches == 0 {
		return 0
	}
	return s.ParItems / s.ParDispatches
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
	}
}

// String renders a compact one-line summary (phload soak summaries and
// phserver drain reports).
func (s CoreStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: insert ops=%d mean-probe=%d.%03d; find ops=%d hits=%d mean-probe=%d.%03d; delete ops=%d",
		s.InsertOps, s.MeanProbePm("insert")/1000, s.MeanProbePm("insert")%1000,
		s.FindOps, s.FindHits, s.MeanProbePm("find")/1000, s.MeanProbePm("find")%1000,
		s.DeleteOps)
	if s.GrowEvents > 0 {
		fmt.Fprintf(&b, "; grow events=%d moved=%d", s.GrowEvents, s.GrowCellsMoved)
	}
	if s.ShardBulkCalls > 0 {
		fmt.Fprintf(&b, "; shard-bulk calls=%d runs=%d elems=%d imbalance=%d.%03dx",
			s.ShardBulkCalls, s.ShardBulkRuns, s.ShardBulkElems,
			s.MaxShardImbalancePm/1000, s.MaxShardImbalancePm%1000)
	}
	if s.ParDispatches > 0 {
		fmt.Fprintf(&b, "; pool dispatches=%d blocks=%d items/dispatch=%d",
			s.ParDispatches, s.ParBlocks, s.ItemsPerDispatch())
	}
	return b.String()
}
