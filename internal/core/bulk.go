package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// This file holds the bulk phase kernels: InsertAll / FindAll /
// DeleteAll / TryInsertAll over element slices. The paper's entire
// evaluation is bulk phase work — "insert n keys, barrier, find n keys"
// — and the per-element API makes that shape pay an indirect closure
// call, a hash computation and a cold home-cell miss for every element.
// The kernels remove all three:
//
//   - the inner loop is a monomorphic method call on the generic table
//     (no func-value or interface dispatch per element);
//   - blocks come from the persistent worker pool (internal/parallel),
//     so a phase costs a handful of channel sends, not goroutine spawns;
//   - probes are software-pipelined: each block works in chunks of
//     stageChunk elements, first hashing the whole chunk and touching
//     every home cell, then probing the chunk against the already
//     in-flight lines. The per-element path eats each home-cell miss
//     inside a serially dependent probe loop.
//
// Each layout has exactly one block kernel per operation — insertRange,
// findRange and deleteRange over [lo, hi) of a slice — running the same
// atomic probe loops as the per-element API. The flat bulk methods run
// them over the blocks of the whole slice; ShardedTable runs them over
// each shard's run of a radix partition. Either way a bulk call is an
// ordinary phase operation: it may overlap any other operation of the
// same phase.
//
// Determinism is untouched: a kernel performs exactly the operation set
// of the equivalent per-element loop, and the quiescent layout of the
// table depends only on that set (history independence), never on the
// blocking or staging. The detres oracle replays bulk and per-element
// paths against each other across its schedule grid to enforce this.

// stageChunk is the software-pipelining window of the bulk kernels: how
// many elements are hashed — with their home cells touched — before the
// window is probed. The stage pass issues its cache misses back to
// back, so the window bounds the memory-level parallelism offered to
// the core; 64 lines (4KB of cells) is far below L1 capacity, so staged
// lines are still resident when the probe pass reaches them.
const stageChunk = 64

// tryInsertBlocks runs an insert kernel over the blocks of [0, n) and
// returns the summed count, the inserts rejected on a full table (for
// the caller to unwind once every block is done) and the error of one
// failed insert, if any.
func tryInsertBlocks[E comparable](n int, kernel func(lo, hi int) (int, []homeless[E], error)) (int, []homeless[E], error) {
	var r struct {
		added atomic.Int64
		mu    sync.Mutex
		err   error
		undo  []homeless[E]
	}
	parallel.ForBlocked(n, 0, func(lo, hi int) {
		a, undo, err := kernel(lo, hi)
		if a != 0 {
			r.added.Add(int64(a))
		}
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.undo = append(r.undo, undo...)
			r.mu.Unlock()
		}
	})
	return int(r.added.Load()), r.undo, r.err
}

// homeless records an insert that swept a full table: it swapped orig
// in, and its displacement chain pushed carried off the array.
type homeless[E comparable] struct{ orig, carried E }

// unwindAll undoes inserts rejected on a full table, once the call that
// made them has finished: delete each orig, then re-insert the element
// its chain pushed out (into the cell the delete freed). By history
// independence, with no other operation on the table this restores
// exactly what it held before those inserts, in that set's canonical
// layout — a rejected insert changes nothing. A later rejected insert
// can push out an earlier one's orig, so pairs are undone latest first,
// and a pair whose orig is not stored waits for another pair's
// re-insert to put it back; pairs that never see their orig stored
// pushed each other's origs out and are dropped.
//
// When rejected inserts meet the table concurrently (per-element
// inserts on several goroutines, or the blocks of one flat bulk call
// while another call runs), each still reports ErrFull, but the undo's
// deletes then overlap other inserts: which keys stay stored, and the
// counts, are unspecified, and the table should be cleared before
// further use.
func unwindAll[E comparable](hs []homeless[E], del func(E) bool, ins func(E)) {
	for len(hs) > 0 {
		var wait []homeless[E]
		for i := len(hs) - 1; i >= 0; i-- {
			if del(hs[i].orig) {
				ins(hs[i].carried)
			} else {
				wait = append(wait, hs[i])
			}
		}
		if len(wait) == len(hs) {
			return
		}
		slices.Reverse(wait)
		hs = wait
	}
}

// sumBlocks runs a find or delete kernel over the blocks of [0, n) and
// returns the summed count.
func sumBlocks(n int, kernel func(lo, hi int) int) int {
	var total atomic.Int64
	parallel.ForBlocked(n, 0, func(lo, hi int) {
		if c := kernel(lo, hi); c != 0 {
			total.Add(int64(c))
		}
	})
	return int(total.Load())
}

// checkFindDst panics, on the caller's goroutine and before any block
// runs, when a non-nil FindAll destination is shorter than the keys.
func checkFindDst[T any](who string, keys int, dst []T) {
	if dst != nil && len(dst) < keys {
		panic(fmt.Sprintf("core: %s.FindAll: dst has length %d, need %d", who, len(dst), keys))
	}
}

// InsertAll inserts every element of elems (insert phase only) and
// returns how many grew the element count — deterministic for a given
// element multiset, like the count of true Insert results. It panics on
// reserved or overflowing elements as Insert does (after attempting
// every element); use TryInsertAll where saturation must degrade
// gracefully.
func (t *WordTable[O]) InsertAll(elems []uint64) int {
	n, err := t.TryInsertAll(elems)
	if err != nil {
		panic("core: WordTable: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning errors instead of panicking: it
// attempts every element (exactly like a per-element TryInsert loop),
// returns the number that grew the count, and reports the error of one
// failed insert when any failed (ErrReservedKey, ErrFull — matchable
// with errors.Is). Which elements land when the table saturates
// mid-phase is schedule-dependent, exactly as for concurrent
// per-element TryInserts; the quiescent layout of whatever landed is
// still history-independent. The rejected inserts are unwound after
// every block is done, so a call that runs alone leaves exactly the
// prior set plus the elements that landed.
func (t *WordTable[O]) TryInsertAll(elems []uint64) (int, error) {
	n, undo, err := tryInsertBlocks(len(elems), func(lo, hi int) (int, []homeless[uint64], error) {
		return t.insertRange(elems, lo, hi)
	})
	t.unwind(undo)
	return n, err
}

// stage is the stage pass of the block kernels: it hashes a chunk into
// homes, then touches every home cell with an atomic load (which cannot
// race with the phase's CASes). The touches get a loop of their own:
// with no hash call between them, the core keeps far more of their
// cache misses in flight.
func (t *WordTable[O]) stage(keys []uint64, homes []int) {
	for i, k := range keys {
		homes[i] = t.home(k)
	}
	for _, h := range homes {
		atomic.LoadUint64(&t.cells[h])
	}
}

// insertRange is the insert block kernel: chunked two-pass probe loops
// over elems[lo:hi). The stage pass warms a chunk's home cells; the
// probe pass then runs against warm lines. Like a TryInsert loop it
// attempts every element, returning how many grew the count and the
// first error met (reserved element, saturation).
//
// The always-on counter core is fed one batched call per kernel call,
// a block or a shard run (ops and probe steps accumulate in locals),
// which keeps the per-element cost inside the 1% overhead gate budget.
// Only completed ops are counted. Inserts rejected on a full table are
// returned in undo, for the caller to unwind.
func (t *WordTable[O]) insertRange(elems []uint64, lo, hi int) (added int, undo []homeless[uint64], err error) {
	var homes [stageChunk]int
	var coreOps, coreSteps uint64
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(elems[base:end], homes[:end-base])
		for i := base; i < end; i++ {
			v := elems[i]
			if v == Empty {
				if err == nil {
					err = reservedErr()
				}
				continue
			}
			a, full, s, carried := t.insertLoopFrom(v, homes[i-base])
			if full {
				if err == nil {
					err = t.fullErr()
				}
				if carried != v {
					undo = append(undo, homeless[uint64]{v, carried})
				}
				continue
			}
			coreOps++
			coreSteps += uint64(s)
			if a {
				added++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreInsert(lo>>6, coreOps, coreSteps)
	}
	return added, undo, err
}

// FindAll looks up every key of keys (find/elements phase only) and
// returns how many are present. When dst is non-nil it must have
// len(dst) >= len(keys) — a shorter dst panics before any lookup runs;
// dst[i] receives the stored element for keys[i] or Empty when absent,
// and dst may be keys itself (an in-place lookup). A nil dst counts
// without writing (ContainsAll).
func (t *WordTable[O]) FindAll(keys []uint64, dst []uint64) int {
	checkFindDst("WordTable", len(keys), dst)
	return sumBlocks(len(keys), func(lo, hi int) int {
		return t.findRange(keys, dst, lo, hi)
	})
}

// findRange is the find block kernel over keys[lo:hi), staged like
// insertRange; it returns how many keys are present and, when dst is
// non-nil, stores each result at dst[i]. Every keys[i] is read before
// dst[i] is written, so dst may alias keys (an in-place lookup).
func (t *WordTable[O]) findRange(keys, dst []uint64, lo, hi int) int {
	var homes [stageChunk]int
	var coreSteps uint64
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(keys[base:end], homes[:end-base])
		for i := base; i < end; i++ {
			e, ok, s := t.findFrom(keys[i], homes[i-base])
			coreSteps += uint64(s)
			if ok {
				n++
			}
			if dst != nil {
				dst[i] = e
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreFind(lo>>6, uint64(hi-lo), coreSteps, uint64(n))
	}
	return n
}

// ContainsAll reports how many of the keys are present (find/elements
// phase only).
func (t *WordTable[O]) ContainsAll(keys []uint64) int {
	return t.FindAll(keys, nil)
}

// DeleteAll deletes every key of keys (delete phase only) and returns
// how many were removed by this call's deletes — like Delete's result,
// the total over a phase is deterministic while attribution between
// duplicate deletes is not.
func (t *WordTable[O]) DeleteAll(keys []uint64) int {
	return sumBlocks(len(keys), func(lo, hi int) int {
		return t.deleteRange(keys, lo, hi)
	})
}

// deleteRange is the delete block kernel over keys[lo:hi), staged like
// insertRange; it returns how many keys this call's deletes removed.
func (t *WordTable[O]) deleteRange(keys []uint64, lo, hi int) int {
	var homes [stageChunk]int
	var coreSteps uint64
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(keys[base:end], homes[:end-base])
		for i := base; i < end; i++ {
			d, s := t.deleteFrom(keys[i], homes[i-base])
			coreSteps += uint64(s)
			if d {
				n++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreDelete(lo>>6, uint64(hi-lo), coreSteps)
	}
	return n
}

// --- PtrTable bulk kernels ---
//
// The pointer table's elements hash through their records (for string
// keys the hash dominates the per-element cost), so the stage pass pays
// off twice: hashes are computed in a tight loop over warm record
// memory and every home cell is in flight before the probe pass.

// InsertAll inserts every record (insert phase only), returning how
// many grew the element count. Panics on nil records or a full table as
// Insert does (after attempting every record).
func (t *PtrTable[T, O]) InsertAll(elems []*T) int {
	n, err := t.TryInsertAll(elems)
	if err != nil {
		panic("core: PtrTable: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning errors instead of panicking; see
// WordTable.TryInsertAll for the saturation semantics.
func (t *PtrTable[T, O]) TryInsertAll(elems []*T) (int, error) {
	n, undo, err := tryInsertBlocks(len(elems), func(lo, hi int) (int, []homeless[*T], error) {
		return t.insertRange(elems, lo, hi)
	})
	t.unwind(undo)
	return n, err
}

// stage is WordTable.stage for records. A nil record has nothing to
// hash; its slot keeps a stale home, which costs only a wasted touch.
func (t *PtrTable[T, O]) stage(elems []*T, homes []int) {
	for i, v := range elems {
		if v != nil {
			homes[i] = t.home(v)
		}
	}
	for _, h := range homes {
		t.cells[h].Load()
	}
}

// insertRange is the insert block kernel over elems[lo:hi); see
// WordTable.insertRange. Nil records are reported as ErrNilValue.
func (t *PtrTable[T, O]) insertRange(elems []*T, lo, hi int) (added int, undo []homeless[*T], err error) {
	var homes [stageChunk]int
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(elems[base:end], homes[:end-base])
		for i := base; i < end; i++ {
			v := elems[i]
			if v == nil {
				if err == nil {
					err = fmt.Errorf("%w: nil encodes the empty cell", ErrNilValue)
				}
				continue
			}
			a, full, carried := t.insertLoopFrom(v, homes[i-base])
			if full {
				if err == nil {
					err = t.fullErr()
				}
				if carried != v {
					undo = append(undo, homeless[*T]{v, carried})
				}
				continue
			}
			if a {
				added++
			}
		}
	}
	return added, undo, err
}

// FindAll looks up every probe record (find/elements phase only; only
// key fields need to be populated) and returns how many are present.
// When dst is non-nil it must have len(dst) >= len(probes) — a shorter
// dst panics before any lookup runs; dst[i] receives the stored record
// or nil.
func (t *PtrTable[T, O]) FindAll(probes []*T, dst []*T) int {
	checkFindDst("PtrTable", len(probes), dst)
	return sumBlocks(len(probes), func(lo, hi int) int {
		return t.findRange(probes, dst, lo, hi)
	})
}

// findRange is the find block kernel over probes[lo:hi); see
// WordTable.findRange.
func (t *PtrTable[T, O]) findRange(probes, dst []*T, lo, hi int) int {
	var homes [stageChunk]int
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(probes[base:end], homes[:end-base])
		for i := base; i < end; i++ {
			e, ok := t.findFrom(probes[i], homes[i-base])
			if ok {
				n++
			}
			if dst != nil {
				dst[i] = e
			}
		}
	}
	return n
}

// DeleteAll deletes every probe's key (delete phase only), returning
// how many were removed by this call's deletes.
func (t *PtrTable[T, O]) DeleteAll(probes []*T) int {
	return sumBlocks(len(probes), func(lo, hi int) int {
		return t.deleteRange(probes, lo, hi)
	})
}

// deleteRange is the delete block kernel over probes[lo:hi).
func (t *PtrTable[T, O]) deleteRange(probes []*T, lo, hi int) int {
	var homes [stageChunk]int
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(probes[base:end], homes[:end-base])
		for i := base; i < end; i++ {
			if t.deleteFrom(probes[i], homes[i-base]) {
				n++
			}
		}
	}
	return n
}

// --- GrowTable bulk kernels ---
//
// The growing table has one live WordTable, so its kernels are
// WordTable's staged kernels. InsertAll counts its whole batch first and
// grows once, before the phase starts, then runs the batch against a
// table that cannot move under it.

// InsertAll inserts every element (insert phase only), growing as
// needed, and returns how many keys were absent. Panics on the reserved
// empty element; use TryInsertAll for an error instead.
func (g *GrowTable[O]) InsertAll(elems []uint64) int {
	n, err := g.TryInsertAll(elems)
	if err != nil {
		panic("core: GrowTable: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning ErrReservedKey (via errors.Is)
// instead of panicking; every non-reserved element is inserted and
// counted as one call, exactly as a per-element TryInsert loop would.
func (g *GrowTable[O]) TryInsertAll(elems []uint64) (int, error) {
	n := 0
	for _, v := range elems {
		if v != Empty {
			n++
		}
	}
	g.reserve(n)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.table.Load().TryInsertAll(elems)
}

// FindAll looks up every key (find/elements phase only), returning how
// many are present; dst as in WordTable.FindAll.
func (g *GrowTable[O]) FindAll(keys []uint64, dst []uint64) int {
	return g.table.Load().FindAll(keys, dst)
}

// ContainsAll reports how many of the keys are present (find/elements
// phase only).
func (g *GrowTable[O]) ContainsAll(keys []uint64) int {
	return g.table.Load().ContainsAll(keys)
}

// DeleteAll deletes every key (delete phase only), returning how many
// were removed by this call's deletes.
func (g *GrowTable[O]) DeleteAll(keys []uint64) int {
	return g.table.Load().DeleteAll(keys)
}
