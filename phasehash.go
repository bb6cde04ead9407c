// Package phasehash is a deterministic phase-concurrent hash table
// library — a Go implementation of Shun & Blelloch, "Phase-Concurrent
// Hash Tables for Determinism" (SPAA 2014).
//
// # Phase-concurrency
//
// Operations are split into three phases that may each run concurrently
// from any number of goroutines:
//
//   - insert phase: Insert
//   - delete phase: Delete
//   - read phase:   Find / Contains / Elements / Count
//
// Operations from *different* phases must be separated by a
// happens-before edge (any barrier: sync.WaitGroup, channel, ...).
// Within this discipline the table is deterministic: at every quiescent
// point its contents — including the order Elements returns — depend
// only on the set of operations performed, never on thread scheduling.
// That makes it a building block for internally deterministic parallel
// programs: see the examples directory for duplicate removal, BFS with
// deterministic frontiers, word counting and Delaunay refinement.
//
// Every set is a *Set and every word map a *Map32; the constructor
// picks the table layout (NewSet, NewShardedSet, NewCompactSet and
// NewGrowSet; NewMap32 and NewShardedMap32). All but NewGrowSet are
// fixed-capacity (the paper's benchmarked configuration): give the
// constructor the maximum number of distinct keys you will store.
// Inserting beyond a fixed capacity panics (TryInsert returns ErrFull
// instead); a set from NewGrowSet grows instead. Key 0 is reserved.
//
// # Checked mode
//
// Wrap any container with its checked twin — Checked for every Set
// layout, NewCheckedMap32, NewCheckedStringMap — to detect
// phase-discipline violations at runtime during development; the check
// costs two atomic operations per table operation and is off the
// benchmarked paths.
//
// # Static checking
//
// The runtime check only fires when the schedule interleaves the
// offending operations. The phasevet analyzer (cmd/phasevet,
// internal/analysis/phasevet) finds the same bug class at compile
// time: run `go vet -vettool=$(which phasevet) ./...` or
// `go run ./cmd/phasevet ./...`. Joins hidden behind helpers the
// analyzer cannot see can be asserted with a //phasehash:barrier
// comment; see the "Static checking" section of README.md.
package phasehash

import (
	"fmt"

	"phasehash/internal/core"
	"phasehash/internal/parallel"
)

// Sentinel errors returned by the TryInsert methods. Every concrete
// return wraps one of these with situation detail (table size, count,
// load factor), so match with errors.Is.
var (
	// ErrFull reports a saturated fixed-capacity container: the insert's
	// probe sequence swept the whole backing array. TryInsert returns it
	// where the panicking Insert would crash; size containers for a load
	// factor below ~0.9 to stay clear of it. A rejected insert is undone
	// before its call returns, so a call that runs alone leaves the
	// container holding what it held plus the keys that landed. When
	// calls meet a full container concurrently, each rejected insert
	// still returns ErrFull, but which keys stay stored is unspecified;
	// clear the container before using it further.
	ErrFull = core.ErrFull
	// ErrNilValue reports an attempt to store a nil record in a
	// pointer-backed container.
	ErrNilValue = core.ErrNilValue
	// ErrReservedKey reports an insert of the reserved key (0).
	ErrReservedKey = core.ErrReservedKey
)

// Set is a deterministic phase-concurrent set of uint64 keys (key 0 is
// reserved and must not be inserted). Every set is a *Set; the
// constructor picks the table layout behind it, and the methods, the
// phase discipline and the determinism contract are the same for all
// four:
//
//   - NewSet: the paper's flat linear-probing table, one word per cell.
//   - NewShardedSet: the flat table split into independent shards
//     selected by the top bits of the key hash, for bulk calls that
//     keep each shard cache-resident.
//   - NewCompactSet: the flat table's cells plus a byte-per-cell
//     fingerprint array, sized for a 0.9 load.
//   - NewGrowSet: one flat table that resizes itself during insert
//     phases, so it never fills.
//
// Elements order and the quiescent layout are a pure function of the
// key set and the constructor arguments (for a growing set, also of its
// insert call count, which fixes its size): identical on every run,
// schedule and worker count.
type Set struct {
	t setTable
}

// setTable is the one table behind a Set: a core.WordTable,
// ShardedTable, CompactTable or GrowTable over SetOps. All four satisfy
// it, so the set's methods are written once for every layout.
type setTable interface {
	Insert(k uint64) bool
	TryInsert(k uint64) (bool, error)
	Contains(k uint64) bool
	Delete(k uint64) bool
	InsertAll(keys []uint64) int
	TryInsertAll(keys []uint64) (int, error)
	ContainsAll(keys []uint64) int
	DeleteAll(keys []uint64) int
	Elements() []uint64
	Count() int
	Size() int
	Bytes() int
	Clear()
}

// shardedTable is the part of a core.ShardedTable that reports its
// shards; the unsharded layouts count as one shard.
type shardedTable interface {
	NumShards() int
	ShardStats() core.ShardStats
}

// numShards is t's shard count: 1 unless t is sharded.
func numShards(t any) int {
	if st, ok := t.(shardedTable); ok {
		return st.NumShards()
	}
	return 1
}

// shardStats is t's ShardStats, with an unsharded t as one shard.
func shardStats(t interface{ Count() int }) core.ShardStats {
	if st, ok := t.(shardedTable); ok {
		return st.ShardStats()
	}
	n := t.Count()
	return core.ShardStats{Shards: 1, Total: n, Min: n, Max: n, Counts: []int{n}}
}

// NewSet returns a set with capacity for at least capacity keys (the
// backing array is the next power of two, as in the paper; keep load
// factor below ~0.9 for linear-probing performance).
func NewSet(capacity int) *Set {
	return &Set{t: core.NewWordTable[core.SetOps](capacity)}
}

// NewShardedSet returns a set with capacity for at least capacity keys
// in total, split over 2^k independent shards selected by the top bits
// of the key hash (shards is rounded up to a power of two). Every
// operation runs the flat table's probe code on the owning shard. The
// bulk calls radix-partition the keys by shard, then one worker applies
// each shard's run with that shard's staged block kernel, so each shard
// stays cache-resident while its run streams and a hot key's CASes
// never contend across workers (see EXPERIMENTS.md, "One probe path per
// layout"). Bulk and per-element calls are ordinary phase operations,
// and any number of goroutines may mix them within a phase.
//
// shards <= 0 selects the default: 8, halved until each shard keeps at
// least 4096 cells, independent of the machine and of earlier calls.
// Pass a larger count for more bulk parallelism on machines with many
// cores. The shard count is part of the layout: Elements lists the keys
// shard by shard, each shard in its table order, so for a fixed
// capacity and shard count it is a pure function of the key set, and
// default-sharded sets reproduce their layouts on every machine and in
// every process. Keys spread over shards unevenly, so size with the
// flat set's headroom; a shard that saturates reports ErrFull.
func NewShardedSet(capacity, shards int) *Set {
	return &Set{t: core.NewShardedTable[core.SetOps](capacity, shards)}
}

// NewCompactSet returns a set backed by the compact fingerprint-probed
// table: the flat table's cells plus a byte-per-cell control array
// holding a 7-bit fingerprint of each occupant's hash, scanned eight
// cells per 64-bit load. Finds read the control array and touch a cell
// only on a fingerprint match, so probe clusters cost loaded bytes
// proportional to 1/8 of the flat table's, which keeps find throughput
// up at load factors the flat table's sizing rules avoid.
//
// The backing array is therefore sized so the requested capacity fits
// within a 0.9 load factor, then rounded up to a power of two: at worst
// 10 bytes per requested key, against NewSet's 16-32, trading
// probe-cluster length (absorbed by the control array) for a much
// smaller footprint. The cells obey exactly the flat table's probe
// discipline (byte-identical layout at equal capacity), and the
// quiescent control array is a pure function of the cells.
func NewCompactSet(capacity int) *Set {
	if capacity < 0 {
		capacity = 0
	}
	return &Set{t: core.NewCompactTable[core.SetOps](capacity + capacity/9 + 1)}
}

// NewGrowSet returns a set with the given initial capacity that resizes
// itself during insert phases: the paper's Section 4 resizing
// extension. It keeps one live flat table. When the count of insert
// calls reaches half the capacity, one insert rehashes every key into a
// larger table while the other inserts wait, then they continue on the
// new table. Insert results are exact (the true results of a phase
// count its new keys, bulk and per-element alike), the layout is
// deterministic exactly like NewSet's, and ErrFull never occurs. The
// price is progress: inserts may block while a resize runs, where the
// fixed layouts' operations never block. Clear keeps the grown size.
func NewGrowSet(initial int) *Set {
	return &Set{t: core.NewGrowTable[core.SetOps](initial)}
}

// CompactSet is another name for Set, kept so code that names the type
// of NewCompactSet's result still compiles. Every set is a *Set.
type CompactSet = Set

// Insert adds k (insert phase). It reports whether the set grew. It
// panics on the reserved key 0 and on a full set; use TryInsert where
// saturation must degrade gracefully.
func (s *Set) Insert(k uint64) bool { return s.t.Insert(k) }

// TryInsert is Insert returning errors instead of panicking:
// ErrReservedKey for key 0 and ErrFull for a saturated fixed-capacity
// set (a growing set grows instead), both matchable with errors.Is.
func (s *Set) TryInsert(k uint64) (bool, error) { return s.t.TryInsert(k) }

// Contains reports whether k is present (read phase).
func (s *Set) Contains(k uint64) bool { return s.t.Contains(k) }

// Delete removes k (delete phase), reporting whether it was removed.
func (s *Set) Delete(k uint64) bool { return s.t.Delete(k) }

// Elements returns the keys in a deterministic order (read phase): for a
// given key set and constructor arguments the result is identical on
// every run, schedule and worker count.
func (s *Set) Elements() []uint64 { return s.t.Elements() }

// Count returns the number of keys (read phase).
func (s *Set) Count() int { return s.t.Count() }

// Capacity returns the cell count of the backing array, summed over the
// shards of a sharded set; a growing set reports its current size.
func (s *Set) Capacity() int { return s.t.Size() }

// Bytes returns the backing-array footprint in bytes: 8 per cell, or 9
// for a compact set (8 for the cell, 1 for its control byte).
func (s *Set) Bytes() int { return s.t.Bytes() }

// NumShards returns the shard count (a power of two); sets not built by
// NewShardedSet have one.
func (s *Set) NumShards() int { return numShards(s.t) }

// ShardStats returns the per-shard element counts and their spread
// (read phase). Imbalance() is Max over mean: 1.0 is perfect balance,
// and the sharded bulk kernels' critical path scales with it.
func (s *Set) ShardStats() core.ShardStats { return shardStats(s.t) }

// Clear empties the set (quiescent use only).
func (s *Set) Clear() { s.t.Clear() }

// Combine selects how a Map32 resolves duplicate keys. All choices are
// commutative and associative, so the stored value — like everything
// else — is deterministic.
type Combine int

// Duplicate-key resolution policies.
const (
	KeepMin Combine = iota // keep the minimum value (WriteMin semantics)
	KeepMax                // keep the maximum value
	Sum                    // add values modulo 2^32
)

// Map32 is a deterministic phase-concurrent map from uint32 keys to
// uint32 values, stored as packed single-word pairs so that one CAS
// covers the whole entry. Key 0 is reserved. NewMap32 builds it on one
// flat table, NewShardedMap32 on radix-selected shards (see
// NewShardedSet); the methods and the determinism contract are the
// same for both.
type Map32 struct {
	t pairTable
}

// pairTable is the one table behind a Map32: a core.WordTable or
// core.ShardedTable over the policy's packed-pair Ops. Both satisfy it,
// so the entry packing is written once for both layouts.
type pairTable interface {
	TryInsert(e uint64) (bool, error)
	Find(e uint64) (uint64, bool)
	Delete(e uint64) bool
	TryInsertAll(elems []uint64) (int, error)
	FindAll(keys, dst []uint64) int
	DeleteAll(keys []uint64) int
	Elements() []uint64
	Count() int
}

// NewMap32 returns a map with the given capacity and duplicate policy.
func NewMap32(capacity int, policy Combine) *Map32 {
	switch policy {
	case KeepMin:
		return &Map32{t: core.NewWordTable[core.PairMinOps](capacity)}
	case KeepMax:
		return &Map32{t: core.NewWordTable[core.PairMaxOps](capacity)}
	case Sum:
		return &Map32{t: core.NewWordTable[core.PairSumOps](capacity)}
	}
	panic("phasehash: unknown Combine policy")
}

// NewShardedMap32 returns a map with the given total capacity, duplicate
// policy and shard count, split over radix-selected shards exactly like
// NewShardedSet (shards <= 0 selects the same default). Entries lists
// the pairs shard by shard.
func NewShardedMap32(capacity int, policy Combine, shards int) *Map32 {
	switch policy {
	case KeepMin:
		return &Map32{t: core.NewShardedTable[core.PairMinOps](capacity, shards)}
	case KeepMax:
		return &Map32{t: core.NewShardedTable[core.PairMaxOps](capacity, shards)}
	case Sum:
		return &Map32{t: core.NewShardedTable[core.PairSumOps](capacity, shards)}
	}
	panic("phasehash: unknown Combine policy")
}

// Insert adds (k, v), resolving duplicates per the policy (insert
// phase). It reports whether a new key was added. It panics on the
// reserved key 0 and on a full map; use TryInsert where saturation must
// degrade gracefully.
func (m *Map32) Insert(k, v uint32) bool {
	added, err := m.TryInsert(k, v)
	if err != nil {
		panic("phasehash: Map32: " + err.Error())
	}
	return added
}

// TryInsert is Insert returning errors instead of panicking:
// ErrReservedKey for key 0 and ErrFull for a saturated map, both
// matchable with errors.Is.
func (m *Map32) TryInsert(k, v uint32) (bool, error) { return tryInsertPair(m.t, k, v) }

// Find returns the value stored under k (read phase).
func (m *Map32) Find(k uint32) (uint32, bool) { return findPair(m.t, k) }

// Delete removes key k (delete phase).
func (m *Map32) Delete(k uint32) bool { return m.t.Delete(core.Pair(k, 0)) }

// Entry is one key-value pair of a Map32.
type Entry struct {
	Key   uint32
	Value uint32
}

// Entries returns the map contents in a deterministic order (read
// phase).
func (m *Map32) Entries() []Entry { return entriesOf(m.t) }

// Count returns the number of keys (read phase).
func (m *Map32) Count() int { return m.t.Count() }

// NumShards returns the shard count (a power of two); maps not built by
// NewShardedMap32 have one.
func (m *Map32) NumShards() int { return numShards(m.t) }

// ShardStats returns the per-shard key counts and their spread (read
// phase); see Set.ShardStats.
func (m *Map32) ShardStats() core.ShardStats { return shardStats(m.t) }

func tryInsertPair(t pairTable, k, v uint32) (bool, error) {
	if k == 0 {
		return false, fmt.Errorf("%w: key 0", ErrReservedKey)
	}
	return t.TryInsert(core.Pair(k, v))
}

func findPair(t pairTable, k uint32) (uint32, bool) {
	e, ok := t.Find(core.Pair(k, 0))
	return core.PairValue(e), ok
}

// entriesOf unpacks the table's deterministic Elements order.
func entriesOf(t pairTable) []Entry {
	raw := t.Elements()
	out := make([]Entry, len(raw))
	parallel.For(len(raw), func(i int) {
		out[i] = Entry{Key: core.PairKey(raw[i]), Value: core.PairValue(raw[i])}
	})
	return out
}

// SetParallelism bounds the worker count used by the library's internal
// parallel operations (Elements packing, Clear). n < 1 resets to
// GOMAXPROCS. It returns the previous setting. Intended for benchmarks
// and tests; the containers themselves scale to any number of caller
// goroutines regardless.
func SetParallelism(n int) int { return parallel.SetNumWorkers(n) }
