// Package tune forwards the default shard count to internal/core. It
// exists only because the benchmark module imports it; it will be
// deleted together with that import.
package tune

import "phasehash/internal/core"

// Shards returns core.DefaultShards(size). The worker count and gauge
// arguments are ignored: the default shard count is a function of
// capacity alone.
func Shards(size, _ int, _ uint64) int { return core.DefaultShards(size) }
