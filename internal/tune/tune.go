// Package tune holds the shard-count policy: a pure integer function
// from a table's capacity, the worker count and the always-on counter
// core's max-shard-imbalance gauge (internal/obs CoreStats) to the
// shard count core.NewShardedTable builds with.
//
// The policy reads no time, timing-derived rate, random state or
// schedule-dependent counter. Its gauge input is a pure function of the
// partitioned keys and the shard count, so the running max over a fixed
// multiset of bulk calls is schedule-independent. The shard count is
// part of the quiescent layout function, so Shards feeds construction
// only: its inputs are fixed before the table exists. Arithmetic is
// integer per-mille throughout, so the policy stays usable from
// kernel-adjacent code under detvet.
package tune

// Policy thresholds, exported so the benchmarks and docs can reference
// the exact decision surface.
const (
	// HighImbalancePm is the max-shard-imbalance gauge level (1000 =
	// perfectly balanced) above which the shard policy stops buying
	// parallelism with extra shards: on skewed distributions the
	// longest run grows with the shard count's imbalance while the
	// partition histograms cost O(shards), so the policy drops to one
	// shard per worker.
	HighImbalancePm = 2000

	// MinShardCells floors per-shard capacity: below ~4K cells (32KB)
	// the two streaming partition passes cost more than the locality
	// they buy.
	MinShardCells = 4096

	// MaxAutoShards caps the automatic policy; the partition pass's
	// per-worker histograms are O(shards).
	MaxAutoShards = 256
)

// Shards selects a shard count for a table of the given total capacity
// under the given worker count, consulting the observed
// max-shard-imbalance gauge (pass 0 when no observation exists — e.g.
// first construction, or a nostats build — which reproduces the legacy
// static policy exactly: 4× workers, capped at MaxAutoShards, halved
// until every shard keeps MinShardCells). The result is always a power
// of two >= 1.
//
// Above HighImbalancePm the gauge says the key distribution is skewed
// enough that extra shards no longer shorten the critical path (the
// longest run), so the policy falls to one shard per worker — still
// enough for every worker to own a run, with minimal partition
// histogram cost.
func Shards(size, workers int, imbalancePm uint64) int {
	if workers < 1 {
		workers = 1
	}
	if size < 1 {
		size = 1
	}
	over := 4
	if imbalancePm >= HighImbalancePm {
		over = 1
	}
	shards := over * workers
	if shards > MaxAutoShards {
		shards = MaxAutoShards
	}
	for shards > 1 && (size+shards-1)/shards < MinShardCells {
		shards /= 2
	}
	// Round up to a power of two: the shard selector shifts hash bits.
	s := 1
	for s < shards {
		s <<= 1
	}
	return s
}
