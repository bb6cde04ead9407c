package core

import (
	"fmt"

	"phasehash/internal/obs"
	"phasehash/internal/parallel"
	"phasehash/internal/tune"
)

// ShardedTable is a radix-partitioned variant of WordTable: 2^k
// independent WordTable shards, selected by the *top* bits of the
// element hash (the in-shard probe origin uses the bottom bits, so the
// two selections are independent). It targets the memory behaviour that
// makes the flat table's bulk phases memory-bound: random probe origins
// thrash cache and TLB across the whole backing array, and
// duplicate-heavy distributions pile CAS retries onto a few hot home
// cells.
//
// Two APIs coexist:
//
//   - The per-element phase-concurrent operations (Insert / TryInsert /
//     Find / Contains / Delete) route to the owning shard's atomic probe
//     loops. They carry exactly WordTable's phase discipline, chaos
//     sites, and lock-freedom; any number of goroutines may call them
//     within a phase.
//
//   - The bulk kernels (InsertAll / TryInsertAll / FindAll /
//     ContainsAll / DeleteAll) are owner-computes: a parallel.Partition
//     pass groups the operands by shard (a stable two-pass counting
//     sort), then each shard's contiguous run is applied by exactly one
//     worker using plain loads and stores (serialprobe.go) — no atomics
//     at all. Cross-worker conflicts are impossible by construction, so
//     contention on skewed distributions drops to zero, and each
//     shard's cells stay cache- and TLB-resident while its run streams.
//     A bulk kernel call must therefore be the *only* activity on the
//     table while it runs: unlike WordTable's bulk kernels, it may not
//     overlap even same-phase per-element calls. Treat each bulk call
//     as a whole phase of its own.
//
// Determinism is unchanged from WordTable: each shard's quiescent
// layout is a pure function of the element subset that hashes to it
// (history independence makes the serial replay land in the same cells
// as any concurrent schedule), so the concatenated layout — and
// Elements() — is a pure function of the element set, the capacity and
// the shard count. Note the shard count is part of that function: two
// tables with different shard counts store the same set in different
// (both deterministic) orders.
type ShardedTable[O Ops] struct {
	ops    O
	shards []*WordTable[O]
	shift  uint // shard index = Hash(e) >> shift
}

// NewShardedTable returns a sharded table with capacity for at least
// size elements in total, split over the given number of shards
// (rounded up to a power of two). shards <= 0 delegates to
// tune.Shards, fed by the always-on counter core's max-shard-imbalance
// gauge: with no skew observed (or under -tags nostats) it is exactly
// the legacy static policy — 4× the current parallel.NumWorkers(),
// clamped so every shard keeps at least tune.MinShardCells cells — and on
// observed heavy skew it falls to one shard per worker (extra shards
// cannot shorten a skew-bound critical path but still pay O(shards)
// partition histograms).
//
// Note the shard count is part of the table's deterministic layout
// function. The gauge is schedule-independent for a fixed multiset of
// prior bulk calls, so auto-sharded construction stays reproducible
// run-to-run; workloads that need bit-identical layouts across
// *different* operation histories should pass an explicit shard count
// (as the detres oracles do).
//
// Keys spread over shards multinomially, so per-shard load factors
// fluctuate around the average; size with the same headroom you would
// give a flat WordTable (load below ~0.9) and the fluctuation is
// absorbed. A shard that does saturate reports ErrFull exactly as a
// flat table would.
func NewShardedTable[O Ops](size, shards int) *ShardedTable[O] {
	if size < 1 {
		size = 1
	}
	if shards <= 0 {
		shards = tune.Shards(size, parallel.NumWorkers(), obs.CoreMaxShardImbalancePm())
	}
	s := 1
	k := uint(0)
	for s < shards {
		s <<= 1
		k++
	}
	per := (size + s - 1) / s
	t := &ShardedTable[O]{shards: make([]*WordTable[O], s), shift: 64 - k}
	for i := range t.shards {
		t.shards[i] = NewWordTable[O](per)
	}
	return t
}

// shardOf returns the index of the shard owning element e.
func (t *ShardedTable[O]) shardOf(e uint64) int {
	return int(t.ops.Hash(e) >> t.shift)
}

// NumShards returns the shard count (a power of two).
func (t *ShardedTable[O]) NumShards() int { return len(t.shards) }

// Size returns the total capacity (cells summed over shards).
func (t *ShardedTable[O]) Size() int { return len(t.shards) * t.shards[0].Size() }

// ShardSize returns the per-shard capacity in cells.
func (t *ShardedTable[O]) ShardSize() int { return t.shards[0].Size() }

// Bytes returns the backing-array footprint summed over shards.
func (t *ShardedTable[O]) Bytes() int { return len(t.shards) * t.shards[0].Bytes() }

// --- per-element phase-concurrent operations (atomic path) ---

// Insert adds element v via the owning shard's atomic probe loop
// (insert phase only); semantics as WordTable.Insert.
func (t *ShardedTable[O]) Insert(v uint64) bool {
	if v == Empty {
		panic("core: ShardedTable: cannot insert the reserved empty element")
	}
	return t.shards[t.shardOf(v)].Insert(v)
}

// TryInsert is Insert returning ErrReservedKey / ErrFull (matchable
// with errors.Is) instead of panicking.
func (t *ShardedTable[O]) TryInsert(v uint64) (bool, error) {
	if v == Empty {
		return false, reservedErr()
	}
	return t.shards[t.shardOf(v)].TryInsert(v)
}

// Find reports the element stored under v's key (find/elements phase
// only); semantics as WordTable.Find.
func (t *ShardedTable[O]) Find(v uint64) (uint64, bool) {
	return t.shards[t.shardOf(v)].Find(v)
}

// Contains is Find without returning the element.
func (t *ShardedTable[O]) Contains(v uint64) bool {
	_, ok := t.Find(v)
	return ok
}

// Delete removes the element with v's key (delete phase only);
// semantics as WordTable.Delete.
func (t *ShardedTable[O]) Delete(v uint64) bool {
	return t.shards[t.shardOf(v)].Delete(v)
}

// --- owner-computes bulk kernels ---

// partitionByShard radix-partitions elems into a fresh scratch slice
// grouped by owning shard, returning the scratch and the shard run
// offsets.
func (t *ShardedTable[O]) partitionByShard(elems []uint64) ([]uint64, []int) {
	scratch := make([]uint64, len(elems))
	offsets := parallel.Partition(scratch, elems, len(t.shards), func(i int) int {
		return t.shardOf(elems[i])
	})
	if obs.Enabled {
		obs.RecordShardBulk(offsets)
	}
	if obs.CoreEnabled {
		obs.CoreShardBulk(offsets)
	}
	return scratch, offsets
}

// InsertAll inserts every element of elems with the owner-computes
// kernel (insert phase; must not overlap ANY other operation on the
// table) and returns how many grew the element count — deterministic
// for a given element multiset. It panics on reserved or overflowing
// elements exactly as Insert does; use TryInsertAll where saturation
// must degrade gracefully.
func (t *ShardedTable[O]) InsertAll(elems []uint64) int {
	if len(elems) == 0 {
		return 0
	}
	scratch, offsets := t.partitionByShard(elems)
	added := make([]int, len(t.shards))
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		sh := t.shards[s]
		a, full := sh.insertRangeSerial(scratch[offsets[s]:offsets[s+1]])
		if full >= 0 {
			panic(fmt.Sprintf("core: ShardedTable: shard %d: %v", s, sh.fullErr()))
		}
		added[s] = a
	})
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// TryInsertAll is InsertAll returning errors instead of panicking: it
// attempts every element, returns the number that grew the count, and
// reports the error of the lowest-numbered failing shard when any
// failed (ErrReservedKey, ErrFull — matchable with errors.Is).
func (t *ShardedTable[O]) TryInsertAll(elems []uint64) (int, error) {
	if len(elems) == 0 {
		return 0, nil
	}
	scratch, offsets := t.partitionByShard(elems)
	added := make([]int, len(t.shards))
	errs := make([]error, len(t.shards))
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		added[s], errs[s] = t.shards[s].tryInsertRangeSerial(scratch[offsets[s]:offsets[s+1]])
	})
	total := 0
	var firstErr error
	for s := range added {
		total += added[s]
		if firstErr == nil && errs[s] != nil {
			firstErr = errs[s]
		}
	}
	return total, firstErr
}

// FindAll looks up every key of keys with the owner-computes kernel
// (find/elements phase; must not overlap any other operation) and
// returns how many are present. When dst is non-nil it must have
// len(dst) >= len(keys); dst[i] receives the stored element for keys[i]
// or Empty when absent. A nil dst counts without writing.
func (t *ShardedTable[O]) FindAll(keys []uint64, dst []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	found := make([]int, len(t.shards))
	if dst == nil {
		scratch, offsets := t.partitionByShard(keys)
		parallel.ForGrain(len(t.shards), 1, func(s int) {
			found[s] = t.shards[s].findRangeSerial(scratch[offsets[s]:offsets[s+1]], nil)
		})
	} else {
		// Results must land in the caller's per-key slots, so partition
		// the index sequence instead of the keys and let each owner
		// gather its keys (and scatter its results) through the stable
		// permutation.
		perm, offsets := parallel.PartitionIndex(len(keys), len(t.shards), func(i int) int {
			return t.shardOf(keys[i])
		})
		if obs.Enabled {
			obs.RecordShardBulk(offsets)
		}
		if obs.CoreEnabled {
			obs.CoreShardBulk(offsets)
		}
		parallel.ForGrain(len(t.shards), 1, func(s int) {
			sh := t.shards[s]
			var coreSteps uint64
			n := 0
			for _, i := range perm[offsets[s]:offsets[s+1]] {
				e, ok, st := sh.findSerial(keys[i])
				coreSteps += uint64(st)
				if ok {
					n++
				}
				dst[i] = e
			}
			if obs.CoreEnabled && offsets[s+1] > offsets[s] {
				obs.CoreFind(s, uint64(offsets[s+1]-offsets[s]), coreSteps, uint64(n))
			}
			found[s] = n
		})
	}
	total := 0
	for _, n := range found {
		total += n
	}
	return total
}

// ContainsAll reports how many of the keys are present (find/elements
// phase; must not overlap any other operation).
func (t *ShardedTable[O]) ContainsAll(keys []uint64) int {
	return t.FindAll(keys, nil)
}

// DeleteAll deletes every key of keys with the owner-computes kernel
// (delete phase; must not overlap any other operation) and returns how
// many were removed — deterministic for a given key multiset.
func (t *ShardedTable[O]) DeleteAll(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	scratch, offsets := t.partitionByShard(keys)
	deleted := make([]int, len(t.shards))
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		deleted[s] = t.shards[s].deleteRangeSerial(scratch[offsets[s]:offsets[s+1]])
	})
	total := 0
	for _, n := range deleted {
		total += n
	}
	return total
}

// --- quiescent observations ---

// Count returns the number of stored elements (find/elements phase
// only): the sum of the shard counts.
func (t *ShardedTable[O]) Count() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.Count()
	}
	return n
}

// ShardStats summarizes the element balance across shards at
// quiescence. It is always available (not gated on the obs build):
// computing it is a parallel Count per shard, paid only when asked.
type ShardStats struct {
	Shards int   // shard count
	Total  int   // stored elements summed over shards
	Min    int   // smallest shard's element count
	Max    int   // largest shard's element count
	Counts []int // per-shard element counts, in shard order
}

// Imbalance returns Max / mean — 1.0 is perfect balance, and the
// owner-computes kernels' critical path scales with it (the fullest
// shard is the longest run). Returns 0 for an empty table.
func (s ShardStats) Imbalance() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Max) * float64(s.Shards) / float64(s.Total)
}

// ShardStats computes the per-shard element counts and their spread
// (find/elements phase only; see ShardStats.Imbalance).
func (t *ShardedTable[O]) ShardStats() ShardStats {
	st := ShardStats{Shards: len(t.shards), Counts: make([]int, len(t.shards))}
	for s, sh := range t.shards {
		c := sh.Count()
		st.Counts[s] = c
		st.Total += c
		if s == 0 || c < st.Min {
			st.Min = c
		}
		if c > st.Max {
			st.Max = c
		}
	}
	return st
}

// Elements packs the stored elements into a fresh slice in shard order,
// each shard in its deterministic table order (find/elements phase
// only). For a given element set, capacity and shard count the result
// is identical across runs, schedules and worker counts.
func (t *ShardedTable[O]) Elements() []uint64 {
	counts := make([]int, len(t.shards))
	for s, sh := range t.shards {
		counts[s] = sh.Count()
	}
	offsets := make([]int, len(t.shards)+1)
	for s, c := range counts {
		offsets[s+1] = offsets[s] + c
	}
	out := make([]uint64, offsets[len(t.shards)])
	parallel.ForGrain(len(t.shards), 1, func(s int) {
		t.shards[s].ElementsInto(out[offsets[s]:offsets[s+1]])
	})
	return out
}

// ElementsInto is Elements packing into dst, which must have len(dst)
// >= Count(); it returns the number packed and panics (index out of
// range) when dst is shorter.
func (t *ShardedTable[O]) ElementsInto(dst []uint64) int {
	n := 0
	for _, sh := range t.shards {
		n += sh.ElementsInto(dst[n:])
	}
	return n
}

// ForEach calls fn for every stored element in shard-then-table order
// (sequential; find/elements phase only).
func (t *ShardedTable[O]) ForEach(fn func(e uint64)) {
	for _, sh := range t.shards {
		sh.ForEach(fn)
	}
}

// Clear resets every shard (a phase barrier by itself; quiescent use
// only).
func (t *ShardedTable[O]) Clear() {
	for _, sh := range t.shards {
		sh.Clear()
	}
}

// Snapshot concatenates the raw shard cell arrays (quiescent use only);
// the history-independence witness the detres oracle byte-compares.
func (t *ShardedTable[O]) Snapshot() []uint64 {
	out := make([]uint64, 0, t.Size())
	for _, sh := range t.shards {
		out = append(out, sh.Snapshot()...)
	}
	return out
}

// CheckInvariant verifies the ordering invariant shard by shard and
// that every element lives in its owning shard (quiescent use only).
func (t *ShardedTable[O]) CheckInvariant() error {
	for s, sh := range t.shards {
		if err := sh.CheckInvariant(); err != nil {
			return err
		}
		var bad error
		sh.ForEach(func(e uint64) {
			if bad == nil && t.shardOf(e) != s {
				bad = fmt.Errorf("core: ShardedTable: element %#x stored in shard %d, owned by shard %d",
					e, s, t.shardOf(e))
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
