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
// The containers here are fixed-capacity (the paper's benchmarked
// configuration): give New* the maximum number of distinct keys you will
// store. Inserting beyond capacity panics. Key 0 is reserved.
//
// # Checked mode
//
// Wrap any container with its checked twin — Checked for Set,
// NewCheckedMap32, NewCheckedStringMap, NewCheckedGrowSet — to detect
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
	// factor below ~0.9 to stay clear of it.
	ErrFull = core.ErrFull
	// ErrNilValue reports an attempt to store a nil record in a
	// pointer-backed container.
	ErrNilValue = core.ErrNilValue
	// ErrReservedKey reports an insert of the reserved key (0).
	ErrReservedKey = core.ErrReservedKey
)

// Set is a deterministic phase-concurrent set of uint64 keys (key 0 is
// reserved and must not be inserted).
type Set struct {
	t *core.WordTable[core.SetOps]
}

// NewSet returns a set with capacity for at least capacity keys (the
// backing array is the next power of two, as in the paper; keep load
// factor below ~0.9 for linear-probing performance).
func NewSet(capacity int) *Set {
	return &Set{t: core.NewWordTable[core.SetOps](capacity)}
}

// Insert adds k (insert phase). It reports whether the set grew. It
// panics on the reserved key 0 and on a full set; use TryInsert where
// saturation must degrade gracefully.
func (s *Set) Insert(k uint64) bool { return s.t.Insert(k) }

// TryInsert is Insert returning errors instead of panicking:
// ErrReservedKey for key 0 and ErrFull for a saturated set, both
// matchable with errors.Is.
func (s *Set) TryInsert(k uint64) (bool, error) { return s.t.TryInsert(k) }

// Contains reports whether k is present (read phase).
func (s *Set) Contains(k uint64) bool { return s.t.Contains(k) }

// Delete removes k (delete phase), reporting whether it was removed.
func (s *Set) Delete(k uint64) bool { return s.t.Delete(k) }

// Elements returns the keys in a deterministic order (read phase): for a
// given key set the result is identical on every run, schedule and
// worker count.
func (s *Set) Elements() []uint64 { return s.t.Elements() }

// Count returns the number of keys (read phase).
func (s *Set) Count() int { return s.t.Count() }

// Capacity returns the cell count of the backing array.
func (s *Set) Capacity() int { return s.t.Size() }

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
// covers the whole entry. Key 0 is reserved.
type Map32 struct {
	t pairTable
}

// pairTable is the one table behind a Map32 or ShardedMap32: a
// core.WordTable or core.ShardedTable over the policy's packed-pair
// Ops. Both satisfy it, so the entry packing is written once for both
// maps.
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
