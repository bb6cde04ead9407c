package core

import (
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

// InsertAll inserts every element of elems (insert phase only) and
// returns how many grew the element count — deterministic for a given
// element multiset, like the count of true Insert results. It panics on
// reserved or overflowing elements exactly as Insert does; use
// TryInsertAll where saturation must degrade gracefully.
func (t *WordTable[O]) InsertAll(elems []uint64) int {
	var added atomic.Int64
	parallel.ForBlocked(len(elems), 0, func(lo, hi int) {
		a, full := t.insertRange(elems, lo, hi)
		if full >= 0 {
			panic("core: WordTable: " + t.fullErr().Error())
		}
		if a != 0 {
			added.Add(int64(a))
		}
	})
	return int(added.Load())
}

// TryInsertAll is InsertAll returning errors instead of panicking: it
// attempts every element (exactly like a per-element TryInsert loop),
// returns the number that grew the count, and reports the error of one
// failed insert when any failed (ErrReservedKey, ErrFull — matchable
// with errors.Is). Which elements land when the table saturates
// mid-phase is schedule-dependent, exactly as for concurrent
// per-element TryInserts; the quiescent layout of whatever landed is
// still history-independent.
func (t *WordTable[O]) TryInsertAll(elems []uint64) (int, error) {
	var added atomic.Int64
	var firstErr atomic.Pointer[error]
	parallel.ForBlocked(len(elems), 0, func(lo, hi int) {
		a := 0
		for i := lo; i < hi; i++ {
			ok, err := t.TryInsert(elems[i])
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				continue
			}
			if ok {
				a++
			}
		}
		if a != 0 {
			added.Add(int64(a))
		}
	})
	if e := firstErr.Load(); e != nil {
		return int(added.Load()), *e
	}
	return int(added.Load()), nil
}

// insertRange is InsertAll's block kernel: chunked two-pass probe loops
// over elems[lo:hi). The stage pass hashes a chunk and touches every
// home cell (the touch is an atomic load, so it cannot race with the
// phase's CASes); the probe pass then runs against warm lines. full
// returns the index of a saturating element, or -1.
//
// The always-on counter core is fed one batched call per block (ops and
// probe steps accumulate in locals), which keeps the per-element cost
// inside the 1% overhead gate budget. Only completed ops are counted:
// on the saturation path the sweeping element's steps are dropped.
func (t *WordTable[O]) insertRange(elems []uint64, lo, hi int) (added, full int) {
	var homes [stageChunk]int
	var coreSteps uint64
	for base := lo; base < hi; base += stageChunk {
		end := base + stageChunk
		if end > hi {
			end = hi
		}
		for i := base; i < end; i++ {
			v := elems[i]
			if v == Empty {
				panic("core: WordTable: cannot insert the reserved empty element")
			}
			h := int(t.ops.Hash(v)) & t.mask
			homes[i-base] = h
			atomic.LoadUint64(&t.cells[h])
		}
		for i := base; i < end; i++ {
			a, f, s := t.insertLoopFrom(elems[i], homes[i-base])
			if f {
				if obs.CoreEnabled {
					obs.CoreInsert(lo>>6, uint64(i-lo), coreSteps)
				}
				return added, i
			}
			coreSteps += uint64(s)
			if a {
				added++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreInsert(lo>>6, uint64(hi-lo), coreSteps)
	}
	return added, -1
}

// FindAll looks up every key of keys (find/elements phase only) and
// returns how many are present. When dst is non-nil it must have
// len(dst) >= len(keys); dst[i] receives the stored element for keys[i]
// or Empty when absent. A nil dst counts without writing (ContainsAll).
func (t *WordTable[O]) FindAll(keys []uint64, dst []uint64) int {
	var found atomic.Int64
	parallel.ForBlocked(len(keys), 0, func(lo, hi int) {
		var homes [stageChunk]int
		var coreSteps uint64
		n := 0
		for base := lo; base < hi; base += stageChunk {
			end := base + stageChunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				h := int(t.ops.Hash(keys[i])) & t.mask
				homes[i-base] = h
				atomic.LoadUint64(&t.cells[h])
			}
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
		if n != 0 {
			found.Add(int64(n))
		}
	})
	return int(found.Load())
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
	var deleted atomic.Int64
	parallel.ForBlocked(len(keys), 0, func(lo, hi int) {
		var homes [stageChunk]int
		var coreSteps uint64
		n := 0
		for base := lo; base < hi; base += stageChunk {
			end := base + stageChunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				h := int(t.ops.Hash(keys[i])) & t.mask
				homes[i-base] = h
				atomic.LoadUint64(&t.cells[h])
			}
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
		if n != 0 {
			deleted.Add(int64(n))
		}
	})
	return int(deleted.Load())
}

// --- PtrTable bulk kernels ---
//
// The pointer table's elements hash through their records (for string
// keys the hash dominates the per-element cost), so the stage pass pays
// off twice: hashes are computed in a tight loop over warm record
// memory and every home cell is in flight before the probe pass.

// InsertAll inserts every record (insert phase only), returning how
// many grew the element count. Panics on nil records or a full table
// exactly as Insert does.
func (t *PtrTable[T, O]) InsertAll(elems []*T) int {
	var added atomic.Int64
	parallel.ForBlocked(len(elems), 0, func(lo, hi int) {
		var homes [stageChunk]int
		a := 0
		for base := lo; base < hi; base += stageChunk {
			end := base + stageChunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				v := elems[i]
				if v == nil {
					panic("core: PtrTable: cannot insert nil")
				}
				h := int(t.ops.Hash(v)) & t.mask
				homes[i-base] = h
				t.cells[h].Load()
			}
			for i := base; i < end; i++ {
				ad, full := t.insertLoopFrom(elems[i], homes[i-base])
				if full {
					panic("core: PtrTable: " + t.fullErr().Error())
				}
				if ad {
					a++
				}
			}
		}
		if a != 0 {
			added.Add(int64(a))
		}
	})
	return int(added.Load())
}

// TryInsertAll is InsertAll returning errors instead of panicking; see
// WordTable.TryInsertAll for the saturation semantics.
func (t *PtrTable[T, O]) TryInsertAll(elems []*T) (int, error) {
	var added atomic.Int64
	var firstErr atomic.Pointer[error]
	parallel.ForBlocked(len(elems), 0, func(lo, hi int) {
		a := 0
		for i := lo; i < hi; i++ {
			ok, err := t.TryInsert(elems[i])
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				continue
			}
			if ok {
				a++
			}
		}
		if a != 0 {
			added.Add(int64(a))
		}
	})
	if e := firstErr.Load(); e != nil {
		return int(added.Load()), *e
	}
	return int(added.Load()), nil
}

// FindAll looks up every probe record (find/elements phase only; only
// key fields need to be populated) and returns how many are present.
// When dst is non-nil it must have len(dst) >= len(probes); dst[i]
// receives the stored record or nil.
func (t *PtrTable[T, O]) FindAll(probes []*T, dst []*T) int {
	var found atomic.Int64
	parallel.ForBlocked(len(probes), 0, func(lo, hi int) {
		var homes [stageChunk]int
		n := 0
		for base := lo; base < hi; base += stageChunk {
			end := base + stageChunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				h := int(t.ops.Hash(probes[i])) & t.mask
				homes[i-base] = h
				t.cells[h].Load()
			}
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
		if n != 0 {
			found.Add(int64(n))
		}
	})
	return int(found.Load())
}

// DeleteAll deletes every probe's key (delete phase only), returning
// how many were removed by this call's deletes.
func (t *PtrTable[T, O]) DeleteAll(probes []*T) int {
	var deleted atomic.Int64
	parallel.ForBlocked(len(probes), 0, func(lo, hi int) {
		var homes [stageChunk]int
		n := 0
		for base := lo; base < hi; base += stageChunk {
			end := base + stageChunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				h := int(t.ops.Hash(probes[i])) & t.mask
				homes[i-base] = h
				t.cells[h].Load()
			}
			for i := base; i < end; i++ {
				if t.deleteFrom(probes[i], homes[i-base]) {
					n++
				}
			}
		}
		if n != 0 {
			deleted.Add(int64(n))
		}
	})
	return int(deleted.Load())
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
	t := g.table.Load()
	if n < len(elems) {
		return t.TryInsertAll(elems)
	}
	return t.InsertAll(elems), nil
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
