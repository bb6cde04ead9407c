//go:build nostats && !obs

package obs

// CoreEnabled reports whether this binary carries the always-on counter
// core. Under -tags nostats (without obs) it is constant false, so
// every `if obs.CoreEnabled { obs.Core...() }` call site is dead-code
// eliminated — this build exists only as the A/B baseline for the
// core-overhead gate (`make tune-overhead`) and its `go tool nm` size
// check, which asserts the core's sinks are absent from it.
const CoreEnabled = false

// CoreInsert is a no-op under -tags nostats.
func CoreInsert(stripe int, ops, steps uint64) {}

// CoreFind is a no-op under -tags nostats.
func CoreFind(stripe int, ops, steps, hits uint64) {}

// CoreDelete is a no-op under -tags nostats.
func CoreDelete(stripe int, ops, steps uint64) {}

// CoreGrow is a no-op under -tags nostats.
func CoreGrow(moved uint64) {}

// CoreShardBulk is a no-op under -tags nostats.
func CoreShardBulk(offsets []int) {}

// CoreDispatch is a no-op under -tags nostats.
func CoreDispatch(nblocks, items int) {}

// CoreHelperRun is a no-op under -tags nostats.
func CoreHelperRun(stripe, blocks int, spinHit bool) {}

// CoreMaxShardImbalancePm returns 0 under -tags nostats.
func CoreMaxShardImbalancePm() uint64 { return 0 }

// CoreSnapshot returns an empty CoreStats under -tags nostats.
func CoreSnapshot() CoreStats { return CoreStats{} }

// CoreReset is a no-op under -tags nostats.
func CoreReset() {}
