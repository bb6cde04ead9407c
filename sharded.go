package phasehash

import "phasehash/internal/core"

// This file exposes the radix-partitioned sharded containers
// (internal/core/sharded.go): the deterministic table split into 2^k
// independent shards selected by the top bits of the key hash. Every
// operation runs the flat table's probe code on the owning shard. The
// bulk calls radix-partition the keys by shard, then one worker applies
// each shard's run with that shard's staged block kernel, so each shard
// stays cache-resident while its run streams and a hot key's CASes
// never contend across workers (see EXPERIMENTS.md, "One probe path per
// layout").
//
// The phase contract is exactly the flat containers': bulk and
// per-element calls are ordinary phase operations, and any number of
// goroutines may mix them within a phase.
//
// Determinism: for a fixed capacity and shard count, Elements order and
// the quiescent layout are a pure function of the key set, exactly as
// for the flat containers. The default shard count (shards <= 0) is a
// function of the capacity alone, so default-sharded containers
// reproduce their layouts on every machine and in every process.

// ShardedSet is a deterministic phase-concurrent set of uint64 keys
// backed by radix-selected shards (key 0 is reserved).
type ShardedSet struct {
	t *core.ShardedTable[core.SetOps]
}

// NewShardedSet returns a sharded set with capacity for at least
// capacity keys in total, split over the given number of shards
// (rounded up to a power of two). shards <= 0 selects the default: 8,
// halved until each shard keeps at least 4096 cells, independent of the
// machine and of earlier calls. Pass a larger count for more bulk
// parallelism on machines with many cores.
func NewShardedSet(capacity, shards int) *ShardedSet {
	return &ShardedSet{t: core.NewShardedTable[core.SetOps](capacity, shards)}
}

// Insert adds k (insert phase), reporting whether the set grew. It
// panics on the reserved key 0 and on a full shard; use TryInsert where
// saturation must degrade gracefully.
func (s *ShardedSet) Insert(k uint64) bool { return s.t.Insert(k) }

// TryInsert is Insert returning ErrReservedKey / ErrFull (matchable
// with errors.Is) instead of panicking.
func (s *ShardedSet) TryInsert(k uint64) (bool, error) { return s.t.TryInsert(k) }

// Contains reports whether k is present (read phase).
func (s *ShardedSet) Contains(k uint64) bool { return s.t.Contains(k) }

// Delete removes k (delete phase), reporting whether it was removed.
func (s *ShardedSet) Delete(k uint64) bool { return s.t.Delete(k) }

// InsertAll inserts every key (insert phase) and returns how many grew
// the set — deterministic for a given key multiset. It panics on the
// reserved key 0 and on a full shard; use TryInsertAll where saturation
// must degrade gracefully.
func (s *ShardedSet) InsertAll(keys []uint64) int { return s.t.InsertAll(keys) }

// TryInsertAll is InsertAll returning errors instead of panicking
// (ErrReservedKey, ErrFull — matchable with errors.Is); every key is
// attempted.
func (s *ShardedSet) TryInsertAll(keys []uint64) (int, error) { return s.t.TryInsertAll(keys) }

// ContainsAll reports how many of the keys are present (read phase).
func (s *ShardedSet) ContainsAll(keys []uint64) int { return s.t.ContainsAll(keys) }

// DeleteAll deletes every key (delete phase) and returns how many were
// removed.
func (s *ShardedSet) DeleteAll(keys []uint64) int { return s.t.DeleteAll(keys) }

// Elements returns the keys in a deterministic order (read phase):
// shard by shard, each shard in its table order. For a given key set,
// capacity and shard count the result is identical on every run,
// schedule and worker count.
func (s *ShardedSet) Elements() []uint64 { return s.t.Elements() }

// Count returns the number of keys (read phase).
func (s *ShardedSet) Count() int { return s.t.Count() }

// Capacity returns the total cell count over all shards.
func (s *ShardedSet) Capacity() int { return s.t.Size() }

// NumShards returns the shard count (a power of two).
func (s *ShardedSet) NumShards() int { return s.t.NumShards() }

// ShardStats returns the per-shard element counts and their spread
// (read phase). Imbalance() is Max over mean — 1.0 is perfect balance,
// and the bulk kernels' critical path scales with it.
func (s *ShardedSet) ShardStats() core.ShardStats { return s.t.ShardStats() }

// Clear empties the set (quiescent use only).
func (s *ShardedSet) Clear() { s.t.Clear() }

// ShardedMap32 is a deterministic phase-concurrent map from uint32 keys
// to uint32 values backed by radix-selected shards; the sharded
// counterpart of Map32 (key 0 is reserved).
type ShardedMap32 struct {
	t shardedPairTable
}

// shardedPairTable is a pairTable that also reports its shards.
type shardedPairTable interface {
	pairTable
	NumShards() int
	ShardStats() core.ShardStats
}

// NewShardedMap32 returns a sharded map with the given total capacity,
// duplicate policy and shard count (shards <= 0 selects the default;
// see NewShardedSet).
func NewShardedMap32(capacity int, policy Combine, shards int) *ShardedMap32 {
	switch policy {
	case KeepMin:
		return &ShardedMap32{t: core.NewShardedTable[core.PairMinOps](capacity, shards)}
	case KeepMax:
		return &ShardedMap32{t: core.NewShardedTable[core.PairMaxOps](capacity, shards)}
	case Sum:
		return &ShardedMap32{t: core.NewShardedTable[core.PairSumOps](capacity, shards)}
	}
	panic("phasehash: unknown Combine policy")
}

// Insert adds (k, v), resolving duplicates per the policy (insert
// phase), reporting whether a new key was added. It panics on the
// reserved key 0 and on a full shard; use TryInsert where saturation
// must degrade gracefully.
func (m *ShardedMap32) Insert(k, v uint32) bool {
	added, err := m.TryInsert(k, v)
	if err != nil {
		panic("phasehash: ShardedMap32: " + err.Error())
	}
	return added
}

// TryInsert is Insert returning ErrReservedKey / ErrFull (matchable
// with errors.Is) instead of panicking.
func (m *ShardedMap32) TryInsert(k, v uint32) (bool, error) { return tryInsertPair(m.t, k, v) }

// Find returns the value stored under k (read phase).
func (m *ShardedMap32) Find(k uint32) (uint32, bool) { return findPair(m.t, k) }

// Delete removes key k (delete phase).
func (m *ShardedMap32) Delete(k uint32) bool { return m.t.Delete(core.Pair(k, 0)) }

// InsertAll inserts every entry, resolving duplicate keys per the
// policy (insert phase), and returns how many new keys were added. It
// panics on the reserved key 0 and on a full shard; use TryInsertAll
// where saturation must degrade gracefully.
func (m *ShardedMap32) InsertAll(entries []Entry) int {
	n, err := m.TryInsertAll(entries)
	if err != nil {
		panic("phasehash: ShardedMap32: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning errors instead of panicking
// (ErrReservedKey, ErrFull — matchable with errors.Is). Entries with
// valid keys are all attempted even when some keys are reserved.
func (m *ShardedMap32) TryInsertAll(entries []Entry) (int, error) {
	return tryInsertEntries(m.t, entries)
}

// FindAll looks up every key (read phase) and returns how many are
// present. When vals is non-nil it must have len(vals) >= len(keys) —
// a shorter vals panics before any lookup runs; vals[i] receives the
// value stored under keys[i], or 0 when absent.
func (m *ShardedMap32) FindAll(keys []uint32, vals []uint32) int {
	return findKeys(m.t, "ShardedMap32", keys, vals)
}

// DeleteAll deletes every key (delete phase) and returns how many were
// removed.
func (m *ShardedMap32) DeleteAll(keys []uint32) int { return m.t.DeleteAll(probePairs(keys)) }

// Entries returns the map contents in a deterministic order (read
// phase); see ShardedSet.Elements for the order guarantee.
func (m *ShardedMap32) Entries() []Entry { return entriesOf(m.t) }

// Count returns the number of keys (read phase).
func (m *ShardedMap32) Count() int { return m.t.Count() }

// NumShards returns the shard count (a power of two).
func (m *ShardedMap32) NumShards() int { return m.t.NumShards() }

// ShardStats returns the per-shard key counts and their spread (read
// phase); see ShardedSet.ShardStats.
func (m *ShardedMap32) ShardStats() core.ShardStats { return m.t.ShardStats() }
