package detres

import "phasehash/internal/core"

// Compact-table runners. Their Layout is the concatenation of the raw
// cell array and the raw ctrl words, so the oracle's byte comparison
// pins BOTH arrays of the quiescent (cells, ctrl) pair across the
// schedule grid — a stale fingerprint diverges even when the cells
// agree. Each replay also runs CheckInvariant before observing, so
// every grid cell additionally proves the ctrl array is the derived
// function of the cells at quiescence, not merely schedule-stable.

// compactResult builds the oracle observation for a quiesced compact
// table, failing loudly on an invariant violation.
func compactResult(elements []uint64, cells, ctrl []uint64, count int, invariant error) OracleResult {
	if invariant != nil {
		panic("detres: compact invariant violated at quiescence: " + invariant.Error())
	}
	return OracleResult{
		Elements: elements,
		Layout:   append(cells, ctrl...),
		Count:    count,
	}
}

// CompactRunner replays on a fixed-capacity CompactTable[SetOps]
// through the per-element atomic path (probe CAS loops + syncCtrl
// convergence).
type CompactRunner struct{ Capacity int }

// Name implements Runner.
func (r CompactRunner) Name() string { return "compact" }

// Run implements Runner.
func (r CompactRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewCompactTable[core.SetOps](r.Capacity)
	replayPhases(len(elems), workers,
		func(i int) { t.Insert(elems[i]) },
		func(i int) { t.Delete(elems[i]) })
	return compactResult(t.Elements(), t.Snapshot(), t.CtrlSnapshot(), t.Count(), t.CheckInvariant())
}

// CompactBulkRunner replays through CompactTable's staged bulk kernels;
// as with WordBulkRunner, its operation set per phase matches
// CompactRunner's, so its quiescent (cells, ctrl) pair must be
// byte-identical across the grid and against CompactRunner's
// (RunCrossOracle pins bulk to per-element).
type CompactBulkRunner struct{ Capacity int }

// Name implements Runner.
func (r CompactBulkRunner) Name() string { return "compact-bulk" }

// Run implements Runner.
func (r CompactBulkRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewCompactTable[core.SetOps](r.Capacity)
	t.InsertAll(elems)
	t.DeleteAll(everyThird(elems))
	return compactResult(t.Elements(), t.Snapshot(), t.CtrlSnapshot(), t.Count(), t.CheckInvariant())
}
