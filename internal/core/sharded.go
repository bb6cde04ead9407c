package core

import (
	"fmt"

	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// minShardCells floors the default per-shard capacity: below ~4K cells
// (32KB) the two streaming partition passes cost more than the
// locality they buy.
const minShardCells = 4096

// DefaultShards is the shard count NewShardedTable uses when it is
// given none: 8, halved until every shard keeps at least minShardCells
// of the size cells. It must depend on size alone: the shard count is
// part of the layout, so anything else it read (the worker count, a
// runtime gauge) would make Elements() order depend on the machine or
// on the process's history. At two workers, bulk phases with 8 shards
// measured within the run-to-run spread of 4 to 256 shards, while
// small calls pay per shard (EXPERIMENTS.md, "Default shard count"). A
// caller that wants more bulk parallelism on a machine with many cores
// passes an explicit count.
func DefaultShards(size int) int {
	shards := 8
	for shards > 1 && (size+shards-1)/shards < minShardCells {
		shards /= 2
	}
	return shards
}

// ShardedTable is a radix-partitioned variant of WordTable: 2^k
// independent WordTable shards, selected by the *top* bits of the
// element hash (the in-shard probe origin uses the bottom bits, so the
// two selections are independent). It targets the memory behaviour that
// makes the flat table's bulk phases memory-bound: random probe origins
// thrash cache and TLB across the whole backing array, and
// duplicate-heavy distributions pile CAS retries onto a few hot home
// cells.
//
// Both APIs run WordTable's own probe code on the owning shard:
//
//   - The per-element phase-concurrent operations (Insert / TryInsert /
//     Find / Contains / Delete) route to the owning shard's atomic probe
//     loops.
//
//   - The bulk kernels (InsertAll / TryInsertAll / FindAll /
//     ContainsAll / DeleteAll) run a parallel.Partition pass that groups
//     the operands by shard (a stable two-pass counting sort), then
//     apply each shard's contiguous run with one worker running the
//     shared staged block kernel (insertRange / findRange /
//     deleteRange, bulk.go) on that shard. One worker per shard keeps
//     each shard's cells cache- and TLB-resident while its run
//     streams, and keeps every hot home cell of a skewed distribution
//     on one worker, so its CASes do not contend.
//
// Both carry exactly WordTable's phase discipline, chaos sites and
// lock-freedom: any number of goroutines may call any mix of them
// within a phase, bulk calls included.
//
// Determinism is unchanged from WordTable: each shard's quiescent
// layout is a pure function of the element subset that hashes to it
// (history independence), so the concatenated layout — and
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
// (rounded up to a power of two). shards <= 0 selects DefaultShards(size).
//
// The shard count is part of the table's deterministic layout
// function, and the default is a function of size alone, so a
// default-sharded table's Elements() order depends only on the element
// set and size: not on the worker count, the build tags or anything an
// earlier table did.
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
		shards = DefaultShards(size)
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

// --- bulk kernels: radix partition, then one worker per shard run ---

// scratch allocates a bulk call's operand scratch for n keys together
// with the hash buffer its shard runs stage into (see stageBufs): one
// slot of min(stageChunk, n) words per shard, so runs on different
// workers never share one.
func (t *ShardedTable[O]) scratch(n int) (ops, hs []uint64) {
	buf := make([]uint64, n+len(t.shards)*min(stageChunk, n))
	return buf[:n], buf[n:]
}

// slot returns shard s's slot of the hash buffer hs.
func (t *ShardedTable[O]) slot(hs []uint64, s int) []uint64 {
	c := len(hs) / len(t.shards)
	return hs[s*c : (s+1)*c]
}

// partitionByShard radix-partitions elems into a fresh scratch slice
// grouped by owning shard, returning the scratch, the shard run offsets
// and the runs' hash buffer.
func (t *ShardedTable[O]) partitionByShard(elems []uint64) (scratch []uint64, offsets []int, hs []uint64) {
	scratch, hs = t.scratch(len(elems))
	offsets = parallel.Partition(scratch, elems, len(t.shards), func(i int) int {
		return t.shardOf(elems[i])
	})
	if obs.CoreEnabled {
		obs.CoreShardBulk(offsets)
	}
	return scratch, offsets, hs
}

// sumShards runs kernel(s, lo, hi) on every non-empty shard run
// [offsets[s], offsets[s+1]), one worker per shard, and returns the
// summed results. A call of at most parallel.MinGrain keys runs inline,
// as a flat bulk call of that size does.
func (t *ShardedTable[O]) sumShards(offsets []int, kernel func(s, lo, hi int) int) int {
	counts := make([]int, len(t.shards))
	grain := 1
	if offsets[len(t.shards)] <= parallel.MinGrain {
		grain = len(t.shards) // one block: ForGrain runs it on the caller
	}
	parallel.ForGrain(len(t.shards), grain, func(s int) {
		if offsets[s] < offsets[s+1] {
			counts[s] = kernel(s, offsets[s], offsets[s+1])
		}
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// InsertAll inserts every element of elems (insert phase only) and
// returns how many grew the element count — deterministic for a given
// element multiset. It panics on reserved or overflowing elements as
// Insert does (after attempting every element); use TryInsertAll where
// saturation must degrade gracefully.
func (t *ShardedTable[O]) InsertAll(elems []uint64) int {
	n, err := t.TryInsertAll(elems)
	if err != nil {
		panic("core: ShardedTable: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning errors instead of panicking: it
// attempts every element, returns the number that grew the count, and
// reports the error of the lowest-numbered failing shard when any
// failed (ErrReservedKey, ErrFull — matchable with errors.Is).
func (t *ShardedTable[O]) TryInsertAll(elems []uint64) (int, error) {
	if len(elems) == 0 {
		return 0, nil
	}
	scratch, offsets, hs := t.partitionByShard(elems)
	errs := make([]error, len(t.shards))
	added := t.sumShards(offsets, func(s, lo, hi int) int {
		// A shard's run is one worker's, so its rejected inserts are
		// unwound as soon as the run is done.
		a, undo, err := insertRange(t.shards[s], scratch, t.slot(hs, s), lo, hi)
		unwind(t.shards[s], undo)
		errs[s] = err
		return a
	})
	for _, err := range errs {
		if err != nil {
			return added, err
		}
	}
	return added, nil
}

// FindAll looks up every key of keys (find/elements phase only) and
// returns how many are present. When dst is non-nil it must have
// len(dst) >= len(keys) — a shorter dst panics before any lookup runs;
// dst[i] receives the stored element for keys[i] or Empty when absent,
// and dst may be keys itself (an in-place lookup). A nil dst counts
// without writing.
func (t *ShardedTable[O]) FindAll(keys []uint64, dst []uint64) int {
	checkFindDst("ShardedTable", len(keys), dst)
	if len(keys) == 0 {
		return 0
	}
	if dst == nil {
		scratch, offsets, hs := t.partitionByShard(keys)
		return t.sumShards(offsets, func(s, lo, hi int) int {
			return findRange(t.shards[s], scratch, nil, t.slot(hs, s), lo, hi)
		})
	}
	// Results must land in the caller's per-key slots, so partition the
	// index sequence instead of the keys: each shard's worker gathers
	// its keys through the stable permutation, looks them up in place
	// and scatters the results back.
	perm, offsets := parallel.PartitionIndex(len(keys), len(t.shards), func(i int) int {
		return t.shardOf(keys[i])
	})
	if obs.CoreEnabled {
		obs.CoreShardBulk(offsets)
	}
	scratch, hs := t.scratch(len(keys))
	return t.sumShards(offsets, func(s, lo, hi int) int {
		for j := lo; j < hi; j++ {
			scratch[j] = keys[perm[j]]
		}
		n := findRange(t.shards[s], scratch, scratch, t.slot(hs, s), lo, hi)
		for j := lo; j < hi; j++ {
			dst[perm[j]] = scratch[j]
		}
		return n
	})
}

// ContainsAll reports how many of the keys are present (find/elements
// phase only).
func (t *ShardedTable[O]) ContainsAll(keys []uint64) int {
	return t.FindAll(keys, nil)
}

// DeleteAll deletes every key of keys (delete phase only) and returns
// how many were removed by this call's deletes; semantics as
// WordTable.DeleteAll.
func (t *ShardedTable[O]) DeleteAll(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	scratch, offsets, hs := t.partitionByShard(keys)
	return t.sumShards(offsets, func(s, lo, hi int) int {
		return deleteRange(t.shards[s], scratch, t.slot(hs, s), lo, hi)
	})
}

// --- quiescent observations ---

// The quiescent scans run the shared two-pass pack (bulk.go) over the
// concatenated shard cell arrays: one count pass and one copy pass for
// the whole table, with blocks cut at shard boundaries (the shard size
// is the pack's segment), so every block is one shard's
// countRange/packRange kernel.

// countRange is WordTable.countRange on the shard holding the global
// cell range [lo, hi), which never straddles a shard.
func (t *ShardedTable[O]) countRange(lo, hi int) int {
	per := t.ShardSize()
	s := lo / per
	return t.shards[s].countRange(lo-s*per, hi-s*per)
}

// packRange is WordTable.packRange on the shard holding [lo, hi).
func (t *ShardedTable[O]) packRange(lo, hi int, dst []uint64) {
	per := t.ShardSize()
	s := lo / per
	t.shards[s].packRange(lo-s*per, hi-s*per, dst)
}

// Count returns the number of stored elements (find/elements phase
// only).
func (t *ShardedTable[O]) Count() int {
	return countElements[uint64](t, t.Size(), t.ShardSize())
}

// ShardStats summarizes the element balance across shards at
// quiescence. It is always available (not gated on the obs build):
// computing it is one parallel count pass, paid only when asked.
type ShardStats struct {
	Shards int   // shard count
	Total  int   // stored elements summed over shards
	Min    int   // smallest shard's element count
	Max    int   // largest shard's element count
	Counts []int // per-shard element counts, in shard order
}

// Imbalance returns Max / mean — 1.0 is perfect balance, and the
// bulk kernels' critical path scales with it (the fullest
// shard is the longest run). Returns 0 for an empty table.
func (s ShardStats) Imbalance() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Max) * float64(s.Shards) / float64(s.Total)
}

// ShardStats computes the per-shard element counts and their spread
// (find/elements phase only; see ShardStats.Imbalance). Each shard's
// count is read off the count pass at its boundary offsets.
func (t *ShardedTable[O]) ShardStats() ShardStats {
	bs := parallel.CountBlocks(t.Size(), t.ShardSize(), t.countRange)
	per := t.ShardSize()
	st := ShardStats{Shards: len(t.shards), Counts: make([]int, len(t.shards)), Total: bs.Total()}
	for s := range t.shards {
		c := bs.Offset((s+1)*per) - bs.Offset(s*per)
		st.Counts[s] = c
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
	return elements[uint64](t, t.Size(), t.ShardSize())
}

// ElementsInto is Elements packing into dst, which must have len(dst)
// >= Count(); it returns the number packed, and a shorter dst panics
// after the count pass, before anything is written.
func (t *ShardedTable[O]) ElementsInto(dst []uint64) int {
	return elementsInto(t, t.Size(), t.ShardSize(), dst)
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
