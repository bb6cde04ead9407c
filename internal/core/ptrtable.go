package core

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// PtrOps defines element semantics for pointer tables, mirroring Ops for
// records too wide for a single-word CAS. Arguments are never nil.
type PtrOps[T any] interface {
	// Hash returns the full 64-bit hash of e's key.
	Hash(e *T) uint64
	// Cmp orders elements by key priority (0 iff keys are equal).
	Cmp(a, b *T) int
	// Merge resolves a duplicate-key insertion; it must be commutative
	// and associative in the element it selects or builds.
	Merge(cur, new *T) *T
}

// PtrTable is the deterministic phase-concurrent hash table over
// pointer-stored elements — the paper's indirection path for key-value
// records wider than a CAS (it stores and CASes one pointer per cell).
// Algorithms are identical to WordTable's; only the cell type differs.
//
// Determinism caveat: the *contents* of the table (the sequence of
// records produced by Elements) are deterministic; the pointer bits
// themselves of course vary run to run.
type PtrTable[T any, O PtrOps[T]] struct {
	ops   O
	cells []atomic.Pointer[T]
	mask  int
}

// NewPtrTable returns a pointer table whose backing array is the next
// power of two m >= size; capacity semantics are NewWordTable's — up
// to m records, with a further insert into a completely full table
// failing with ErrFull (Insert panics, TryInsert returns it).
func NewPtrTable[T any, O PtrOps[T]](size int) *PtrTable[T, O] {
	if size < 1 {
		size = 1
	}
	m := 1
	for m < size {
		m <<= 1
	}
	return &PtrTable[T, O]{cells: make([]atomic.Pointer[T], m), mask: m - 1}
}

// Size returns the capacity (number of cells).
func (t *PtrTable[T, O]) Size() int { return len(t.cells) }

func (t *PtrTable[T, O]) load(p int) *T {
	return t.cells[p&t.mask].Load()
}

func (t *PtrTable[T, O]) cas(p int, old, new *T) bool {
	return t.cells[p&t.mask].CompareAndSwap(old, new)
}

// lift is WordTable.lift: map hash h of the element at unnormalized
// position p into p's frame.
func (t *PtrTable[T, O]) lift(h uint64, p int) int {
	return p - ((p - int(h)) & t.mask)
}

func (t *PtrTable[T, O]) home(e *T) int {
	return int(t.ops.Hash(e)) & t.mask
}

// Insert adds element v (insert phase only); on an equal key the two
// elements are resolved with Ops.Merge. Reports whether the element count
// grew. v must be non-nil and must not be mutated afterwards.
//
// Insert panics on nil and on a full table; use TryInsert where
// saturation must degrade gracefully instead of crash.
func (t *PtrTable[T, O]) Insert(v *T) bool {
	if v == nil {
		panic("core: PtrTable: cannot insert nil")
	}
	added, full := t.insertLoop(v)
	if full {
		panic("core: PtrTable: " + t.fullErr().Error())
	}
	return added
}

// TryInsert is Insert returning errors instead of panicking: ErrNilValue
// for a nil record and ErrFull (with size, count and load factor) when
// the probe sequence sweeps the whole backing array. Both satisfy
// errors.Is against the package sentinels.
func (t *PtrTable[T, O]) TryInsert(v *T) (bool, error) {
	if v == nil {
		return false, fmt.Errorf("%w: nil encodes the empty cell", ErrNilValue)
	}
	added, full := t.insertLoop(v)
	if full {
		return false, t.fullErr()
	}
	return added, nil
}

// insertLoop is the probe loop shared by Insert and TryInsert, kept free
// of error construction so both stay thin inlinable wrappers. full
// reports a whole-array sweep (saturation). It publishes one completed
// insert to the telemetry as WordTable.insertLoop does.
func (t *PtrTable[T, O]) insertLoop(v *T) (added, full bool) {
	h := t.home(v)
	added, full, steps, carried := t.insertLoopFrom(v, h)
	if !full {
		obs.PublishInsert(h, steps)
	} else if carried != v {
		t.unwind([]homeless[*T]{{v, carried}})
	}
	return added, full
}

// unwind undoes inserts rejected on a full table; see unwindAll.
func (t *PtrTable[T, O]) unwind(hs []homeless[*T]) {
	unwindAll(hs, func(e *T) bool {
		deleted, _ := t.deleteFrom(e, t.home(e))
		return deleted
	}, func(e *T) { t.insertLoopFrom(e, t.home(e)) })
}

// insertLoopFrom is insertLoop starting from a caller-supplied probe
// origin (i must be t.home(v)); the bulk kernels pre-hash and
// cache-stage homes ahead of the probe. The steps it returns and the
// element carried out of a full table mirror WordTable.insertLoopFrom.
func (t *PtrTable[T, O]) insertLoopFrom(v *T, i int) (added, full bool, steps int, carried *T) {
	start := i
	limit := i + len(t.cells)
	for {
		if chaos.Enabled {
			chaos.Yield(chaos.SitePtrInsertProbe)
		}
		if i >= limit {
			return false, true, i - start, v
		}
		c := t.load(i)
		if c == nil {
			if chaos.Enabled && chaos.FailCAS(chaos.SitePtrInsertClaim) {
				continue // pretend the CAS lost; re-read the cell
			}
			if t.cas(i, nil, v) {
				return true, false, i - start, nil
			}
			continue
		}
		cmp := t.ops.Cmp(c, v)
		switch {
		case cmp == 0:
			merged := t.ops.Merge(c, v)
			if chaos.Enabled && merged != c && chaos.FailCAS(chaos.SitePtrInsertMerge) {
				continue
			}
			if merged == c || t.cas(i, c, merged) {
				return false, false, i - start, nil
			}
		case cmp > 0:
			i++
		default:
			if chaos.Enabled && chaos.FailCAS(chaos.SitePtrInsertDisplace) {
				continue
			}
			if t.cas(i, c, v) {
				v = c
				i++
			}
		}
	}
}

// fullErr builds the ErrFull report for a saturated table; the count is
// an atomic snapshot taken mid-phase.
func (t *PtrTable[T, O]) fullErr() error {
	n := 0
	for i := range t.cells {
		if t.cells[i].Load() != nil {
			n++
		}
	}
	return fullTableErr(len(t.cells), n)
}

// Find returns the stored element with v's key (find/elements phase
// only). Only v's key fields need to be populated.
func (t *PtrTable[T, O]) Find(v *T) (*T, bool) {
	h := t.home(v)
	e, ok, steps := t.findFrom(v, h)
	obs.PublishFind(h, steps, ok)
	return e, ok
}

// findFrom is Find starting from a caller-supplied probe origin. The
// whole-array sweep bound is WordTable.findFrom's: on a saturated table
// an absent key outranked by its whole probe path would otherwise wrap
// forever.
func (t *PtrTable[T, O]) findFrom(v *T, i int) (*T, bool, int) {
	start := i
	limit := i + len(t.cells)
	for i < limit {
		c := t.load(i)
		if c == nil {
			return nil, false, i - start
		}
		cmp := t.ops.Cmp(v, c)
		if cmp > 0 {
			return nil, false, i - start
		}
		if cmp == 0 {
			return c, true, i - start
		}
		i++
	}
	// Full sweep without a verdict: the table is saturated and v absent.
	return nil, false, i - start
}

// Delete removes the element with v's key (delete phase only).
func (t *PtrTable[T, O]) Delete(v *T) bool {
	h := t.home(v)
	deleted, steps := t.deleteFrom(v, h)
	obs.PublishDelete(h, steps)
	return deleted
}

// deleteFrom is Delete starting from a caller-supplied probe origin;
// the victim scan has WordTable.deleteFrom's sweep bound, and steps is
// its length.
func (t *PtrTable[T, O]) deleteFrom(v *T, i int) (deleted bool, steps int) {
	home := i
	k := i
	for k < home+len(t.cells) {
		c := t.load(k)
		if c == nil || t.ops.Cmp(v, c) >= 0 {
			break
		}
		k++
	}
	steps = k - home
	for k >= i {
		if chaos.Enabled {
			chaos.Yield(chaos.SitePtrDeleteProbe)
		}
		c := t.load(k)
		if c == nil || t.ops.Cmp(v, c) != 0 {
			k--
			continue
		}
		j, w, hw := t.findReplacement(k)
		if t.cas(k, c, w) {
			deleted = true
			if w == nil {
				return true, steps
			}
			v = w
			k = j
			i = t.lift(hw&uint64(t.mask), j)
		} else {
			k--
		}
	}
	return deleted, steps
}

// findReplacement is WordTable.findReplacement verbatim over record
// pointers: the sweep bound, the memo (a record is never mutated once
// stored, so an unchanged pointer is an unchanged value) and the
// returned hash.
func (t *PtrTable[T, O]) findReplacement(i int) (j int, w *T, hw uint64) {
	last := i + len(t.cells) - 1 // the sweep bound
	if chaos.Enabled {
		chaos.Yield(chaos.SitePtrDeleteProbe)
	}
	j = i + 1
	if j > last {
		return j, nil, 0
	}
	w = t.load(j)
	if w == nil {
		return j, w, 0
	}
	hw = t.ops.Hash(w)
	if t.lift(hw&uint64(t.mask), j) <= i {
		return j, w, hw
	}
	seen := [replMemo]*T{w}
	for {
		if chaos.Enabled {
			chaos.Yield(chaos.SitePtrDeleteProbe)
		}
		j++
		if j > last {
			w = nil
			break
		}
		w = t.load(j)
		if w == nil {
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
		if w2 == nil {
			w, j = nil, k
			continue
		}
		if h2 := t.ops.Hash(w2); t.lift(h2&uint64(t.mask), k) <= i {
			w, hw, j = w2, h2, k
		}
	}
	return j, w, hw
}

// Elements packs the stored elements in table order; deterministic for a
// given element set (find/elements phase only). It is WordTable's
// blocked two-pass pack, with atomic loads in the kernels.
func (t *PtrTable[T, O]) Elements() []*T {
	bs := parallel.CountBlocks(len(t.cells), 0, t.countRange)
	out := make([]*T, bs.Total())
	parallel.EmitBlocks(bs, out, t.packRange)
	return out
}

// ElementsInto packs the stored elements into dst and returns the
// number packed (find/elements phase only). As for WordTable, the
// contract is on dst's *length*, not its capacity: len(dst) >= Count()
// is required, and a shorter dst panics after the count pass, before
// anything is written.
func (t *PtrTable[T, O]) ElementsInto(dst []*T) int {
	bs := parallel.CountBlocks(len(t.cells), 0, t.countRange)
	parallel.EmitBlocks(bs, dst, t.packRange)
	return bs.Total()
}

// Count returns the number of stored elements (find/elements phase only).
func (t *PtrTable[T, O]) Count() int {
	return parallel.CountBlocks(len(t.cells), 0, t.countRange).Total()
}

// countRange counts the occupied cells in [lo, hi).
func (t *PtrTable[T, O]) countRange(lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if t.cells[i].Load() != nil {
			n++
		}
	}
	return n
}

// packRange copies the stored elements of [lo, hi) into dst in table
// order; len(dst) is exactly their number (countRange's result).
func (t *PtrTable[T, O]) packRange(lo, hi int, dst []*T) {
	j := 0
	for i := lo; i < hi; i++ {
		if e := t.cells[i].Load(); e != nil {
			dst[j] = e
			j++
		}
	}
}

// Clear resets the table (callers must be quiescent).
func (t *PtrTable[T, O]) Clear() {
	parallel.For(len(t.cells), func(i int) { t.cells[i].Store(nil) })
}

// CheckInvariant verifies the ordering invariant at quiescence; see
// WordTable.CheckInvariant.
func (t *PtrTable[T, O]) CheckInvariant() error {
	m := len(t.cells)
	for j := 0; j < m; j++ {
		e := t.cells[j].Load()
		if e == nil {
			continue
		}
		h := t.home(e)
		dist := (j - h) & t.mask
		for d := 1; d <= dist; d++ {
			k := (h + d - 1) & t.mask
			c := t.cells[k].Load()
			if c == nil {
				return fmt.Errorf("core: hole at %d inside probe path of element at %d (home %d)", k, j, h)
			}
			if t.ops.Cmp(c, e) < 0 {
				return fmt.Errorf("core: priority inversion at %d for element at %d (home %d)", k, j, h)
			}
		}
	}
	return nil
}
