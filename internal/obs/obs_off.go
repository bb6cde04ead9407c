//go:build !obs

package obs

// Enabled reports whether this binary was built with the obs tag. It is
// a constant so that call sites guarded by `if obs.Enabled` are removed
// by dead-code elimination: the production build pays nothing for the
// hooks, and `make obs-sizecheck` asserts no Record* symbol survives
// linking.
const Enabled = false

// RecordInsert is a no-op without the obs tag.
func RecordInsert(stripe int, steps, casAttempts, casFailures, displacements uint64) {}

// RecordFind is a no-op without the obs tag.
func RecordFind(stripe int, steps uint64, hit bool) {}

// RecordCompactFind is a no-op without the obs tag.
func RecordCompactFind(stripe int, steps, ctrlWords, falsePos uint64, hit bool) {}

// RecordDelete is a no-op without the obs tag.
func RecordDelete(stripe int, steps, replacements, casFailures uint64) {}

// RecordGrow is a no-op without the obs tag.
func RecordGrow(moved uint64) {}

// RecordDispatch is a no-op without the obs tag.
func RecordDispatch(nblocks int) {}

// RecordWorkerBlocks is a no-op without the obs tag.
func RecordWorkerBlocks(worker int, blocks uint64) {}

// RecordWake is a no-op without the obs tag.
func RecordWake(stale bool) {}

// RecordCursorMiss is a no-op without the obs tag.
func RecordCursorMiss(n uint64) {}

// RecordShardBulk is a no-op without the obs tag.
func RecordShardBulk(offsets []int) {}

// RecordEpochAdmit is a no-op without the obs tag.
func RecordEpochAdmit(depth int) {}

// RecordEpochShed is a no-op without the obs tag.
func RecordEpochShed(overload bool) {}

// RecordEpochCancel is a no-op without the obs tag.
func RecordEpochCancel() {}

// RecordEpochFlush is a no-op without the obs tag.
func RecordEpochFlush(ops int, split bool, insertFull int) {}

// RecordEpochLatency is a no-op without the obs tag.
func RecordEpochLatency(us uint64) {}

// ActiveSpan is an in-progress phase-timeline span. Without the obs tag
// it carries no state and all methods are no-ops; a nil *ActiveSpan is
// always safe to use.
type ActiveSpan struct{}

// AddOp is a no-op without the obs tag.
func (*ActiveSpan) AddOp() {}

// PhaseStart returns nil without the obs tag.
func PhaseStart(name string) *ActiveSpan { return nil }

// PhaseEnd is a no-op without the obs tag.
func PhaseEnd(*ActiveSpan) {}

// TakeSnapshot returns an empty snapshot with Enabled == false.
func TakeSnapshot() Snapshot { return Snapshot{} }

// Reset is a no-op without the obs tag.
func Reset() {}
