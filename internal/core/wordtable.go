package core

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/obs"
)

// WordTable is the deterministic phase-concurrent hash table
// (linearHash-D) over single-word elements. See the package comment for
// the phase-concurrency contract. The zero value is not usable; construct
// with NewWordTable.
//
// All three per-element operations are lock-free and non-blocking; the
// paper proves termination bounds of O(p^2·m) CAS attempts for p
// concurrent inserts and O(p·m^3) steps for p concurrent deletes on a
// table of m cells.
type WordTable[O Ops] struct {
	wordCells[O]
}

// NewWordTable returns a table whose backing array is the next power of
// two m >= size. A table of m cells stores up to m distinct keys;
// inserting a further absent key into a completely full table fails
// with ErrFull (Insert panics, TryInsert returns it), detected by the
// probe sweeping the whole array; a rejected insert is undone before
// its call returns (see unwind for what that guarantees). The paper
// assumes the table never becomes completely full: a full table still
// answers correctly, but absent-key probes degrade to O(m) sweeps, so
// size with headroom (the paper's experiments run at load factors <=
// ~0.9). PtrTable and
// CompactTable share these capacity semantics and the ErrFull message.
func NewWordTable[O Ops](size int) *WordTable[O] {
	m := 1
	for m < size {
		m <<= 1
	}
	return &WordTable[O]{newWordCells[O](m)}
}

// Size returns the capacity (number of cells) of the table.
func (t *WordTable[O]) Size() int { return len(t.cells) }

// Bytes returns the backing-array footprint: 8 bytes per cell.
func (t *WordTable[O]) Bytes() int { return len(t.cells) * 8 }

// Insert adds element v to the table (insert phase only). If an element
// with equal key is already present the two are resolved with Ops.Merge
// and the table size does not change. It reports whether the table's
// element count grew by one; the *count* of true results over a phase is
// deterministic, though which duplicate insert reports true is not.
//
// Insert panics on the reserved empty element and on a full table; use
// TryInsert where saturation must degrade gracefully instead of crash.
func (t *WordTable[O]) Insert(v uint64) bool {
	if v == Empty {
		panic("core: WordTable: cannot insert the reserved empty element")
	}
	added, err := t.TryInsert(v)
	if err != nil {
		panic("core: WordTable: " + err.Error())
	}
	return added
}

// TryInsert is Insert returning errors instead of panicking: ErrReservedKey
// for the reserved empty element and ErrFull (enriched with the table's
// size, count and load factor) when the probe sequence sweeps the whole
// backing array. Both satisfy errors.Is against the package sentinels.
//
// It is the per-element insert: the probe loop, called directly, then
// the telemetry publish of the completed insert (the counter core and,
// in obs builds, the insert histogram) or the unwind of a rejected one.
func (t *WordTable[O]) TryInsert(v uint64) (bool, error) {
	if v == Empty {
		return false, reservedErr()
	}
	h := t.ops.Hash(v)
	added, full, steps, carried := t.insertLoop(v, h)
	if full {
		if carried != v {
			unwind(t, []homeless[uint64]{{v, carried}})
		}
		return false, t.fullErr()
	}
	obs.PublishInsert(int(h), steps)
	return added, nil
}

// stage is the stage pass of the block kernels: it hashes a chunk, then
// touches every home cell with an atomic load (which cannot race with
// the phase's CASes). The touches get a loop of their own: with no hash
// call between them, the core keeps far more of their cache misses in
// flight.
func (t *WordTable[O]) stage(keys []uint64, hs []uint64, _ bool) {
	hs = hs[:len(keys)]
	for i, k := range keys {
		hs[i] = t.ops.Hash(k)
	}
	for _, h := range hs {
		atomic.LoadUint64(&t.cells[int(h)&t.mask])
	}
}

// insertLoop is Figure 1's INSERT for v with hash h: walk the probe
// sequence from v's home; past higher-priority elements, step forward;
// on a lower-priority element, CAS ourselves in and carry the displaced
// element forward; on an equal key, merge.
//
// The loop carries no telemetry. It returns the cells it walked as
// steps (i grows monotonically, so i-start is exactly that count), and
// its callers publish them: per op from the per-element API, batched
// per block from the bulk kernels.
//
// A sweep that finds the table full returns the element it carries
// when it gives up: v itself, or the element its displacement chain
// pushed off the array, in which case the caller must unwind.
func (t *WordTable[O]) insertLoop(v uint64, h uint64) (added, full bool, steps int, carried uint64) {
	i := int(h) & t.mask
	start := i
	limit := i + len(t.cells)
	for {
		if chaos.Enabled {
			chaos.Yield(chaos.SiteWordInsertProbe)
		}
		if i >= limit {
			return false, true, i - start, v
		}
		c := t.load(i)
		if c == Empty {
			if chaos.Enabled && chaos.FailCAS(chaos.SiteWordInsertClaim) {
				continue // pretend the CAS lost; re-read the cell
			}
			if t.cas(i, Empty, v) {
				return true, false, i - start, Empty
			}
			continue // re-read the cell
		}
		cmp := t.ops.Cmp(c, v)
		switch {
		case cmp == 0:
			// Equal keys: resolve deterministically. Another insert may
			// concurrently raise this cell's priority, so on CAS failure
			// fall through to re-read and re-compare.
			merged := t.ops.Merge(c, v)
			if chaos.Enabled && merged != c && chaos.FailCAS(chaos.SiteWordInsertMerge) {
				continue
			}
			if merged == c || t.cas(i, c, merged) {
				return false, false, i - start, Empty
			}
		case cmp > 0: // cell has higher priority; keep probing
			i++
		default: // v has higher priority; swap in and carry c forward
			if chaos.Enabled && chaos.FailCAS(chaos.SiteWordInsertDisplace) {
				continue
			}
			if t.cas(i, c, v) {
				v = c
				i++
				// The displaced element hashes at or before i-1, so its
				// remaining probe distance is still bounded by the
				// cluster length; keep the same safety limit.
			}
		}
	}
}

// Find reports the element stored under v's key (find/elements phase
// only; also safe during quiescence). v's value part, if any, is ignored:
// only the key participates.
func (t *WordTable[O]) Find(v uint64) (uint64, bool) {
	h := t.ops.Hash(v)
	e, ok, steps := t.findLoop(v, h)
	obs.PublishFind(int(h), steps, ok)
	return e, ok
}

// findLoop is Figure 1's FIND for v with hash h: probe forward from v's
// home while cells hold strictly higher-priority keys; the ordering
// invariant makes the first cell with priority <= v's the only place v
// can live. The whole-array sweep bound matters on a *saturated* table:
// with no Empty cell, a probe for an absent key of lower priority than
// everything in its path would otherwise wrap forever (insertLoop has
// the same guard; that is how ErrFull is detected).
func (t *WordTable[O]) findLoop(v uint64, h uint64) (uint64, bool, int) {
	i := int(h) & t.mask
	start := i
	limit := i + len(t.cells)
	for i < limit {
		c := t.load(i)
		if c == Empty {
			return Empty, false, i - start
		}
		cmp := t.ops.Cmp(v, c)
		if cmp > 0 {
			return Empty, false, i - start
		}
		if cmp == 0 {
			return c, true, i - start
		}
		i++
	}
	// Full sweep without a verdict: the table is saturated and v absent.
	return Empty, false, i - start
}

// Contains is Find without returning the element.
func (t *WordTable[O]) Contains(v uint64) bool {
	_, ok := t.Find(v)
	return ok
}

// Delete removes the element with v's key (delete phase only) and
// reports whether the phase's deletes removed it by the time this call
// completed its work.
func (t *WordTable[O]) Delete(v uint64) bool {
	h := t.ops.Hash(v)
	deleted, steps := t.deleteLoop(v, h)
	obs.PublishDelete(int(h), steps)
	return deleted
}

// deleteLoop is Figure 1's DELETE for v with hash h: find the victim,
// have findReplacement select the next element in the probe sequence
// that may legally move back into the hole, CAS it in, and recursively
// delete the copy it left behind. steps is the victim-scan length
// (cells walked to locate v's cluster position), the cheap per-op cost
// proxy the telemetry records.
func (t *WordTable[O]) deleteLoop(v uint64, h uint64) (deleted bool, steps int) {
	// Find v or the first element past it in the probe sequence
	// (concurrent deletes may have shifted v back, never forward).
	i := int(h) & t.mask
	home := i
	k := i
	// The sweep bound keeps the victim scan finite on a saturated table
	// (no Empty cell and every element outranking v); overshooting to
	// home+size is harmless — the downward pass below re-examines the
	// interval anyway.
	for k < home+len(t.cells) {
		c := t.load(k)
		if c == Empty || t.ops.Cmp(v, c) >= 0 {
			break
		}
		k++
	}
	steps = k - home
	for k >= i {
		if chaos.Enabled {
			// Yield only: a forced CAS failure here would be read as "a
			// concurrent delete removed the victim", changing semantics.
			chaos.Yield(chaos.SiteWordDeleteProbe)
		}
		c := t.load(k)
		if c == Empty || t.ops.Cmp(v, c) != 0 {
			k--
			continue
		}
		j, w, hw := t.findReplacement(k, chaos.SiteWordDeleteProbe)
		if t.cas(k, c, w) {
			deleted = true
			if w == Empty {
				return true, steps
			}
			// There are now two copies of w; we own deleting one.
			v = w
			k = j
			i = t.lift(hw&uint64(t.mask), j)
		} else {
			// v was deleted or moved down by a concurrent delete.
			k--
		}
	}
	return deleted, steps
}

// InsertAll inserts every element of elems (insert phase only) and
// returns how many grew the element count — deterministic for a given
// element multiset, like the count of true Insert results. It panics on
// reserved or overflowing elements as Insert does (after attempting
// every element); use TryInsertAll where saturation must degrade
// gracefully.
func (t *WordTable[O]) InsertAll(elems []uint64) int {
	return insertAll(t, "WordTable", elems)
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
	return tryInsertAll(t, elems)
}

// FindAll looks up every key of keys (find/elements phase only) and
// returns how many are present. When dst is non-nil it must have
// len(dst) >= len(keys) — a shorter dst panics before any lookup runs;
// dst[i] receives the stored element for keys[i] or Empty when absent,
// and dst may be keys itself (an in-place lookup). A nil dst counts
// without writing (ContainsAll).
func (t *WordTable[O]) FindAll(keys []uint64, dst []uint64) int {
	return findAll(t, "WordTable", keys, dst)
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
	return deleteAll(t, keys)
}

// Elements packs the non-empty cells into a fresh slice in table order
// (find/elements phase only). Because the cell layout is
// history-independent, the result is identical across runs and thread
// counts for the same element set — the paper's deterministic ELEMENTS().
func (t *WordTable[O]) Elements() []uint64 {
	return elements[uint64](t, len(t.cells), 0)
}

// ElementsInto packs the non-empty cells into dst and returns the
// number packed. The contract is on dst's *length*, not its capacity:
// len(dst) >= Count() is required, and a shorter dst panics after the
// count pass, before anything is written.
func (t *WordTable[O]) ElementsInto(dst []uint64) int {
	return elementsInto(t, len(t.cells), 0, dst)
}

// Count returns the number of elements currently stored (parallel scan;
// find/elements phase only).
func (t *WordTable[O]) Count() int {
	return countElements[uint64](t, len(t.cells), 0)
}

// CountAtomic is Count with atomic cell reads: safe to call while
// another phase is mutating the table (used by fullErr's saturation
// report; the result is a racy snapshot).
func (t *WordTable[O]) CountAtomic() int { return t.countAtomic() }

// ForEach calls fn for every stored element in table order (sequential;
// find/elements phase only).
func (t *WordTable[O]) ForEach(fn func(e uint64)) { t.forEach(fn) }

// Clear resets every cell to Empty (a phase barrier by itself: callers
// must not run it concurrently with anything).
func (t *WordTable[O]) Clear() { t.clearCells() }

// CheckInvariant walks the table and verifies the ordering invariant
// (Definition 2): for every stored element at position j with probe
// origin i, every cell in [i, j) holds an element of priority >= the
// element's. It returns nil if the invariant holds. Quiescent use only;
// exported for tests and for the fuzzing harness.
//
//phasehash:serial quiescent use only: invariant checks run between phases with no operation in flight
func (t *WordTable[O]) CheckInvariant() error {
	m := len(t.cells)
	for j := 0; j < m; j++ {
		e := t.cells[j]
		if e == Empty {
			continue
		}
		h := int(t.ops.Hash(e)) & t.mask
		// Walk backward from j to h (mod m); every cell on the way must
		// be non-empty and of higher-or-equal priority.
		dist := (j - h) & t.mask
		for d := 1; d <= dist; d++ {
			k := (h + d - 1) & t.mask
			c := t.cells[k]
			if c == Empty {
				return fmt.Errorf("core: hole at %d inside probe path of %#x (home %d, at %d)", k, e, h, j)
			}
			if t.ops.Cmp(c, e) < 0 {
				return fmt.Errorf("core: priority inversion: cell %d holds %#x with lower priority than %#x at %d (home %d)", k, c, e, j, h)
			}
		}
	}
	return nil
}

// Snapshot copies the raw cell array (quiescent use only). Tests use it
// to compare layouts byte-for-byte across schedules.
func (t *WordTable[O]) Snapshot() []uint64 { return t.snapshot() }
