//go:build !obs

package obs

// Enabled reports whether this binary was built with the obs tag. It is
// a constant so that call sites guarded by `if obs.Enabled` are removed
// by dead-code elimination: the production build pays nothing for the
// hooks, and `make obs-sizecheck` asserts no Record* symbol survives
// linking.
const Enabled = false

// RecordInsert is a no-op without the obs tag.
func RecordInsert(stripe, steps int) {}

// RecordFind is a no-op without the obs tag.
func RecordFind(stripe, steps int) {}

// RecordDelete is a no-op without the obs tag.
func RecordDelete(stripe, steps int) {}

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

func takeHistograms(*Snapshot) {}

func resetHistograms() {}
