package core

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
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
	ops   O
	cells []uint64
	mask  int // len(cells)-1; len is a power of two
}

// NewWordTable returns a table whose backing array is the next power of
// two m >= size. A table of m cells stores up to m distinct keys;
// inserting a further absent key into a completely full table fails
// with ErrFull (Insert panics, TryInsert returns it), detected by the
// probe sweeping the whole array; a rejected insert is undone before
// its call returns (see unwindAll for what that guarantees). The paper
// assumes the table never becomes completely full: a full table still
// answers correctly, but absent-key probes degrade to O(m) sweeps, so
// size with headroom (the paper's experiments run at load factors <=
// ~0.9). PtrTable and
// CompactTable share these capacity semantics and the ErrFull message.
func NewWordTable[O Ops](size int) *WordTable[O] {
	if size < 1 {
		size = 1
	}
	m := 1
	for m < size {
		m <<= 1
	}
	return &WordTable[O]{cells: make([]uint64, m), mask: m - 1}
}

// Size returns the capacity (number of cells) of the table.
func (t *WordTable[O]) Size() int { return len(t.cells) }

// Bytes returns the backing-array footprint: 8 bytes per cell.
func (t *WordTable[O]) Bytes() int { return len(t.cells) * 8 }

// load atomically reads the cell at unnormalized position p.
func (t *WordTable[O]) load(p int) uint64 {
	return atomic.LoadUint64(&t.cells[p&t.mask])
}

// cas CASes the cell at unnormalized position p.
func (t *WordTable[O]) cas(p int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&t.cells[p&t.mask], old, new)
}

// lift maps the hash h (in [0, m)) of the element stored at unnormalized
// position p to the same unnormalized frame: the unique q <= p with
// q ≡ h (mod m) and p-q < m. Probe positions in Delete grow without
// wrapping, so position comparisons ("does this element hash at or before
// that cell?") become plain integer comparisons after lifting.
func (t *WordTable[O]) lift(h uint64, p int) int {
	return p - ((p - int(h)) & t.mask)
}

// home returns the (normalized) probe origin of element e.
func (t *WordTable[O]) home(e uint64) int {
	return int(t.ops.Hash(e)) & t.mask
}

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
	added, full := t.insertLoop(v)
	if full {
		panic("core: WordTable: " + t.fullErr().Error())
	}
	return added
}

// TryInsert is Insert returning errors instead of panicking: ErrReservedKey
// for the reserved empty element and ErrFull (enriched with the table's
// size, count and load factor) when the probe sequence sweeps the whole
// backing array. Both satisfy errors.Is against the package sentinels.
func (t *WordTable[O]) TryInsert(v uint64) (bool, error) {
	if v == Empty {
		return false, reservedErr()
	}
	added, full := t.insertLoop(v)
	if full {
		return false, t.fullErr()
	}
	return added, nil
}

// insertLoop is the probe loop shared by Insert and TryInsert, kept free
// of error construction so both stay thin inlinable wrappers. full
// reports a whole-array sweep (saturation). The per-element API is the
// always-on core's per-op publish point; the bulk kernels batch whole
// blocks instead (bulk.go).
func (t *WordTable[O]) insertLoop(v uint64) (added, full bool) {
	h := t.home(v)
	added, full, steps, carried := t.insertLoopFrom(v, h)
	if full && carried != v {
		t.unwind([]homeless[uint64]{{v, carried}})
	}
	if obs.CoreEnabled {
		obs.CoreInsert(h, 1, uint64(steps))
	}
	return added, full
}

// insertLoopFrom is insertLoop starting from a caller-supplied probe
// origin (i must be t.home(v)); the bulk kernels pre-compute and
// cache-stage homes a few elements ahead of the probe.
//
// This is Figure 1's INSERT: walk the probe sequence; past higher-priority
// elements, step forward; on a lower-priority element, CAS ourselves in
// and carry the displaced element forward; on an equal key, merge.
//
// Telemetry (obs builds only; const-folded away otherwise) accumulates
// in locals and publishes once per operation at the return points. The
// probe-step count is i-start: i grows monotonically, so the final
// offset is exactly the cells walked — also returned as steps so the
// caller can feed the always-on counter core (per op from the
// per-element API, batched per block from the bulk kernels).
//
// A sweep that finds the table full returns the element it carries
// when it gives up: v itself, or the element its displacement chain
// pushed off the array, in which case the caller must unwind.
func (t *WordTable[O]) insertLoopFrom(v uint64, i int) (added, full bool, steps int, carried uint64) {
	var obsCAS, obsFail, obsDisp uint64
	start := i
	limit := i + len(t.cells)
	for {
		if chaos.Enabled {
			chaos.Yield(chaos.SiteWordInsertProbe)
		}
		if i >= limit {
			if obs.Enabled {
				obs.RecordInsert(start, uint64(i-start), obsCAS, obsFail, obsDisp)
			}
			return false, true, i - start, v
		}
		c := t.load(i)
		if c == Empty {
			if chaos.Enabled && chaos.FailCAS(chaos.SiteWordInsertClaim) {
				if obs.Enabled {
					obsCAS, obsFail = obsCAS+1, obsFail+1
				}
				continue // pretend the CAS lost; re-read the cell
			}
			if t.cas(i, Empty, v) {
				if obs.Enabled {
					obs.RecordInsert(start, uint64(i-start), obsCAS+1, obsFail, obsDisp)
				}
				return true, false, i - start, Empty
			}
			if obs.Enabled {
				obsCAS, obsFail = obsCAS+1, obsFail+1
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
				if obs.Enabled {
					obsCAS, obsFail = obsCAS+1, obsFail+1
				}
				continue
			}
			if merged == c || t.cas(i, c, merged) {
				if obs.Enabled {
					if merged != c {
						obsCAS++
					}
					obs.RecordInsert(start, uint64(i-start), obsCAS, obsFail, obsDisp)
				}
				return false, false, i - start, Empty
			}
			if obs.Enabled {
				obsCAS, obsFail = obsCAS+1, obsFail+1
			}
		case cmp > 0: // cell has higher priority; keep probing
			i++
		default: // v has higher priority; swap in and carry c forward
			if chaos.Enabled && chaos.FailCAS(chaos.SiteWordInsertDisplace) {
				if obs.Enabled {
					obsCAS, obsFail = obsCAS+1, obsFail+1
				}
				continue
			}
			if t.cas(i, c, v) {
				if obs.Enabled {
					obsCAS, obsDisp = obsCAS+1, obsDisp+1
				}
				v = c
				i++
				// The displaced element hashes at or before i-1, so its
				// remaining probe distance is still bounded by the
				// cluster length; keep the same safety limit.
			} else if obs.Enabled {
				obsCAS, obsFail = obsCAS+1, obsFail+1
			}
		}
	}
}

// unwind undoes inserts rejected on a full table; see unwindAll.
func (t *WordTable[O]) unwind(hs []homeless[uint64]) {
	unwindAll(hs, func(e uint64) bool {
		deleted, _ := t.deleteFrom(e, t.home(e))
		return deleted
	}, func(e uint64) { t.insertLoopFrom(e, t.home(e)) })
}

// fullErr builds the ErrFull report for a saturated table. The count is
// an atomic snapshot (the insert phase is still running), so it is
// approximate but actionable in a field report.
func (t *WordTable[O]) fullErr() error {
	return fullTableErr(len(t.cells), t.CountAtomic())
}

// Find reports the element stored under v's key (find/elements phase
// only; also safe during quiescence). v's value part, if any, is ignored:
// only the key participates. This is Figure 1's FIND: probe forward while
// cells hold strictly higher-priority keys; the ordering invariant makes
// the first cell with priority <= v's the only place v can live.
func (t *WordTable[O]) Find(v uint64) (uint64, bool) {
	h := t.home(v)
	e, ok, steps := t.findFrom(v, h)
	if obs.CoreEnabled {
		var hit uint64
		if ok {
			hit = 1
		}
		obs.CoreFind(h, 1, uint64(steps), hit)
	}
	return e, ok
}

// findFrom is Find starting from a caller-supplied probe origin (i must
// be t.home(v)); see insertLoopFrom. The whole-array sweep bound
// matters on a *saturated* table: with no Empty cell, a probe for an
// absent key of lower priority than everything in its path would
// otherwise wrap forever (insertLoopFrom has the same guard; that is
// how ErrFull is detected).
func (t *WordTable[O]) findFrom(v uint64, i int) (uint64, bool, int) {
	start := i
	limit := i + len(t.cells)
	for i < limit {
		c := t.load(i)
		if c == Empty {
			if obs.Enabled {
				obs.RecordFind(start, uint64(i-start), false)
			}
			return Empty, false, i - start
		}
		cmp := t.ops.Cmp(v, c)
		if cmp > 0 {
			if obs.Enabled {
				obs.RecordFind(start, uint64(i-start), false)
			}
			return Empty, false, i - start
		}
		if cmp == 0 {
			if obs.Enabled {
				obs.RecordFind(start, uint64(i-start), true)
			}
			return c, true, i - start
		}
		i++
	}
	// Full sweep without a verdict: the table is saturated and v absent.
	if obs.Enabled {
		obs.RecordFind(start, uint64(i-start), false)
	}
	return Empty, false, i - start
}

// Contains is Find without returning the element.
func (t *WordTable[O]) Contains(v uint64) bool {
	_, ok := t.Find(v)
	return ok
}

// Delete removes the element with v's key (delete phase only) and
// reports whether the phase's deletes removed it by the time this call
// completed its work. This is Figure 1's DELETE: find the victim, have
// FindReplacement select the next element in the probe sequence that may
// legally move back into the hole, CAS it in, and recursively delete the
// copy it left behind.
func (t *WordTable[O]) Delete(v uint64) bool {
	h := t.home(v)
	deleted, steps := t.deleteFrom(v, h)
	if obs.CoreEnabled {
		obs.CoreDelete(h, 1, uint64(steps))
	}
	return deleted
}

// deleteFrom is Delete starting from a caller-supplied probe origin (i
// must be t.home(v)); see insertLoopFrom. steps is the victim-scan
// length (cells walked to locate v's cluster position), the cheap
// per-op cost proxy the always-on core records.
func (t *WordTable[O]) deleteFrom(v uint64, i int) (deleted bool, steps int) {
	// Find v or the first element past it in the probe sequence
	// (concurrent deletes may have shifted v back, never forward).
	var obsRepl, obsFail uint64
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
		j, w, hw := t.findReplacement(k)
		if t.cas(k, c, w) {
			deleted = true
			if w == Empty {
				if obs.Enabled {
					obs.RecordDelete(home, uint64(steps), obsRepl, obsFail)
				}
				return true, steps
			}
			if obs.Enabled {
				obsRepl++
			}
			// There are now two copies of w; we own deleting one.
			v = w
			k = j
			i = t.lift(hw&uint64(t.mask), j)
		} else {
			// v was deleted or moved down by a concurrent delete.
			if obs.Enabled {
				obsFail++
			}
			k--
		}
	}
	if obs.Enabled {
		obs.RecordDelete(home, uint64(steps), obsRepl, obsFail)
	}
	return deleted, steps
}

// replMemo is the length of findReplacement's memo: the values its
// upward scan passed in the first replMemo cells above the hole. The
// memo lives on the stack, so it stays small; the downward re-read
// hashes cells further up a second time.
const replMemo = 32

// findReplacement implements Figure 1's FINDREPLACEMENT: given the
// unnormalized position i of the element being deleted, return the
// position j, value w and hash hw of the element that should fill the
// hole — the closest following element that hashes at or before i — or
// (j, Empty, _) when the cluster ends first.
//
// The upward scan finds a stopping point; the downward scan re-reads the
// interval because concurrent deletes can only move elements to lower
// positions, so the true replacement can have shifted below the stopping
// point but never above it. (This is the paper's pair of "redundant
// looking" loops; both are required for correctness.)
//
// Within replMemo cells of the hole, each cell is hashed at most once per
// call. The upward scan records the ineligible values it passes there,
// and the downward re-read skips a cell that still holds its recorded
// value, because eligibility is a function of the value and the
// position alone. Every memo slot the re-read consults was recorded
// (the upward scan passed that position without stopping), so none of
// them is Empty. The returned hw saves deleteFrom a third hash of the
// replacement.
func (t *WordTable[O]) findReplacement(i int) (j int, w, hw uint64) {
	// The scan covers at most the other size-1 cells. On a *saturated*
	// table the cluster wraps the whole array; when no element in it may
	// legally move back to i, the hole simply ends the cluster (w =
	// Empty) — without the bound the scan would re-read the array
	// forever.
	last := i + len(t.cells) - 1
	// Most scans stop at the first cell above the hole, leaving the
	// re-read nothing to cover. That step runs before the memo exists,
	// so short scans never pay for zeroing it.
	if chaos.Enabled {
		chaos.Yield(chaos.SiteWordDeleteProbe)
	}
	j = i + 1
	if j > last {
		return j, Empty, 0
	}
	w = t.load(j)
	if w == Empty {
		return j, w, 0
	}
	hw = t.ops.Hash(w)
	if t.lift(hw&uint64(t.mask), j) <= i {
		return j, w, hw
	}
	seen := [replMemo]uint64{w}
	for {
		if chaos.Enabled {
			chaos.Yield(chaos.SiteWordDeleteProbe)
		}
		j++
		if j > last {
			w = Empty
			break
		}
		w = t.load(j)
		if w == Empty {
			break
		}
		hw = t.ops.Hash(w)
		if t.lift(hw&uint64(t.mask), j) <= i {
			break
		}
		if d := j - i - 1; d < replMemo {
			seen[d] = w
		}
	}
	for k := j - 1; k > i; k-- {
		w2 := t.load(k)
		if d := k - i - 1; d < replMemo && w2 == seen[d] {
			continue
		}
		if w2 == Empty {
			w, j = Empty, k
			continue
		}
		if h2 := t.ops.Hash(w2); t.lift(h2&uint64(t.mask), k) <= i {
			w, hw, j = w2, h2, k
		}
	}
	return j, w, hw
}

// Elements packs the non-empty cells into a fresh slice in table order
// (find/elements phase only). Because the cell layout is
// history-independent, the result is identical across runs and thread
// counts for the same element set — the paper's deterministic ELEMENTS().
// It is the blocked two-pass pack (parallel.CountBlocks, then
// parallel.EmitBlocks) over the countRange and packRange kernels.
func (t *WordTable[O]) Elements() []uint64 {
	bs := parallel.CountBlocks(len(t.cells), 0, t.countRange)
	out := make([]uint64, bs.Total())
	parallel.EmitBlocks(bs, out, t.packRange)
	return out
}

// ElementsInto packs the non-empty cells into dst and returns the
// number packed. The contract is on dst's *length*, not its capacity:
// len(dst) >= Count() is required, and a shorter dst panics after the
// count pass, before anything is written.
func (t *WordTable[O]) ElementsInto(dst []uint64) int {
	bs := parallel.CountBlocks(len(t.cells), 0, t.countRange)
	parallel.EmitBlocks(bs, dst, t.packRange)
	return bs.Total()
}

// Count returns the number of elements currently stored (parallel scan;
// find/elements phase only).
func (t *WordTable[O]) Count() int {
	return parallel.CountBlocks(len(t.cells), 0, t.countRange).Total()
}

// countRange counts the non-empty cells in [lo, hi): the count pass of
// Elements and Count.
//
//phasehash:serial find/elements phase: no insert or delete is in flight, so the cells are quiescent under the plain reads; CountAtomic is the cross-phase variant
func (t *WordTable[O]) countRange(lo, hi int) int {
	n := 0
	for _, c := range t.cells[lo:hi] {
		if c != Empty {
			n++
		}
	}
	return n
}

// packRange copies the non-empty cells of [lo, hi) into dst in table
// order; len(dst) is exactly their number (countRange's result). The
// loop is branch-free: every cell is stored at the next free slot and
// the slot advances only past a kept one, so a half-full table costs no
// mispredicted branches. Only the final slot needs a guarded store (an
// unconditional one there would run past the block's region).
//
//phasehash:serial find/elements phase: no insert or delete is in flight, so the cells are quiescent under the plain reads
func (t *WordTable[O]) packRange(lo, hi int, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	cells := t.cells[lo:hi]
	i, j, last := 0, 0, len(dst)-1
	for ; j < last; i++ {
		c := cells[i]
		dst[j] = c
		if c != Empty {
			j++
		}
	}
	for cells[i] == Empty {
		i++
	}
	dst[last] = cells[i]
}

// CountAtomic is Count with atomic cell reads: safe to call while
// another phase is mutating the table (used by fullErr's saturation
// report; the result is a racy snapshot). It is a blocked parallel
// reduce.
func (t *WordTable[O]) CountAtomic() int {
	return parallel.Reduce(len(t.cells), 0,
		func(a, b int) int { return a + b },
		func(i int) int {
			if atomic.LoadUint64(&t.cells[i]) != Empty {
				return 1
			}
			return 0
		})
}

// ForEach calls fn for every stored element in table order (sequential;
// find/elements phase only).
//
//phasehash:serial find/elements phase: no writer is in flight during the sequential scan
func (t *WordTable[O]) ForEach(fn func(e uint64)) {
	for _, c := range t.cells {
		if c != Empty {
			fn(c)
		}
	}
}

// Clear resets every cell to Empty (a phase barrier by itself: callers
// must not run it concurrently with anything).
//
//phasehash:serial quiescent: Clear is itself a phase barrier; nothing runs concurrently with it by contract
func (t *WordTable[O]) Clear() {
	parallel.ForBlocked(len(t.cells), 0, func(lo, hi int) { clear(t.cells[lo:hi]) })
}

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
		h := t.home(e)
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
//
//phasehash:serial quiescent use only: layout snapshots are taken between phases
func (t *WordTable[O]) Snapshot() []uint64 {
	out := make([]uint64, len(t.cells))
	copy(out, t.cells)
	return out
}
