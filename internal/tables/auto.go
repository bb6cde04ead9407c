package tables

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/core"
)

// Kind-policy thresholds, both per-mille; exported so the benchmarks
// and docs can reference the exact decision surface.
const (
	// CompactLoadPm is the load factor above which the compact
	// representation's higher packing density starts paying for its
	// control-byte indirection.
	CompactLoadPm = 700

	// CompactFindSharePm is the find share of the op mix the kind
	// policy additionally requires before picking compact: the
	// fingerprint probe shines on lookups, while inserts pay the extra
	// control-array store.
	CompactFindSharePm = 600
)

// TableKindFor selects AutoTable's representation from the live load
// factor and the find share of the op mix, both per-mille. Compact wins
// only when both the packing density matters (high load) and the mix is
// find-heavy; everything else stays flat, matching the BENCH_core
// crossover measurements. It is a pure integer function of
// schedule-independent inputs, so its decisions replay identically.
func TableKindFor(loadPm, findSharePm uint64) Kind {
	if loadPm >= CompactLoadPm && findSharePm >= CompactFindSharePm {
		return LinearDCompact
	}
	return LinearD
}

// AutoTable is the self-tuning deterministic table: it starts as the
// flat linearHash-D layout (core.WordTable) and switches to the compact
// fingerprint-probed layout (core.CompactTable) — or back — when its
// observed load factor and op mix cross TableKindFor's thresholds
// (high load + find-heavy favours compact; everything else flat).
//
// Representation decisions happen ONLY at bulk-call boundaries, which
// the usage contract makes phase boundaries: like core.ShardedTable's
// kernels, an AutoTable bulk call must be the only activity on the
// table while it runs, because it may migrate the representation.
// Per-element operations between bulk calls follow the ordinary
// phase-concurrent discipline of the underlying table.
//
// Determinism: the decision inputs are the cumulative completed-op
// tallies (a pure function of the operation multiset submitted so far)
// and the quiescent load factor (a pure function of the element set),
// so for a fixed operation script the representation choices — and
// hence the trace — replay identically across schedules and worker
// counts. A migration rebuilds the new layout from Elements(), whose
// order is deterministic, and the two layouts store identical cell
// arrays at equal capacity (see LinearDCompact), so the quiescent
// state remains a pure function of the element set either way.
//
// The load factor is tracked as a running tally of the ops' reported
// count deltas (Insert/InsertAll report how many grew the element
// count, Delete/DeleteAll how many removed — both deterministic phase
// totals) rather than re-scanned: the underlying Count() is an
// O(capacity) sweep, far too expensive to pay at every bulk boundary.
type AutoTable[O core.Ops] struct {
	capacity int
	active   Table
	bulk     Bulk
	kind     Kind
	trace    []byte

	inserts atomic.Uint64
	deletes atomic.Uint64
	finds   atomic.Uint64
	live    atomic.Int64
}

// NewAutoTable returns an auto-tuning table with the given capacity
// (rounded up to a power of two by the underlying layout), starting
// flat.
func NewAutoTable[O core.Ops](size int) *AutoTable[O] {
	flat := core.NewWordTable[O](size)
	return &AutoTable[O]{
		capacity: flat.Size(),
		active:   flat,
		bulk:     flat,
		kind:     LinearD,
	}
}

// retarget re-decides the representation at a bulk-call (phase)
// boundary and migrates when the decision changed. Called only from
// the bulk methods, which require exclusive access.
func (a *AutoTable[O]) retarget() {
	ins, del, fnd := a.inserts.Load(), a.deletes.Load(), a.finds.Load()
	total := ins + del + fnd
	if total == 0 {
		return
	}
	loadPm := uint64(a.live.Load()) * 1000 / uint64(a.capacity)
	findSharePm := fnd * 1000 / total
	kind := TableKindFor(loadPm, findSharePm)
	if kind == a.kind {
		return
	}
	a.trace = fmt.Appendf(a.trace, "kind=%s (loadPm=%d findSharePm=%d)\n", kind, loadPm, findSharePm)
	elems := a.active.Elements()
	var next Table
	if kind == LinearDCompact {
		next = core.NewCompactTable[O](a.capacity)
	} else {
		next = core.NewWordTable[O](a.capacity)
	}
	nb, _ := AsBulk(next)
	nb.InsertAll(elems)
	a.active, a.bulk, a.kind = next, nb, kind
}

// Kind returns the current representation's kind name.
func (a *AutoTable[O]) Kind() Kind { return a.kind }

// TuneTrace returns the representation decision trace, one line per
// switch (quiescent use only).
func (a *AutoTable[O]) TuneTrace() string { return string(a.trace) }

// --- Table ---

// Insert adds element e (insert phase only); semantics of the active
// representation.
func (a *AutoTable[O]) Insert(e uint64) bool {
	a.inserts.Add(1)
	added := a.active.Insert(e)
	if added {
		a.live.Add(1)
	}
	return added
}

// Find returns the element stored under e's key (find/elements phase
// only).
func (a *AutoTable[O]) Find(e uint64) (uint64, bool) {
	a.finds.Add(1)
	return a.active.Find(e)
}

// Delete removes the element with e's key (delete phase only).
func (a *AutoTable[O]) Delete(e uint64) bool {
	a.deletes.Add(1)
	removed := a.active.Delete(e)
	if removed {
		a.live.Add(-1)
	}
	return removed
}

// Elements returns the stored elements in the deterministic table
// order (identical for both representations at equal capacity).
func (a *AutoTable[O]) Elements() []uint64 { return a.active.Elements() }

// Count returns the number of stored elements.
func (a *AutoTable[O]) Count() int { return a.active.Count() }

// Size returns the capacity in cells.
func (a *AutoTable[O]) Size() int { return a.capacity }

// --- Bulk (exclusive access required: may migrate) ---

// InsertAll inserts every element (insert phase; exclusive access),
// re-deciding the representation first.
func (a *AutoTable[O]) InsertAll(elems []uint64) int {
	a.retarget()
	a.inserts.Add(uint64(len(elems)))
	added := a.bulk.InsertAll(elems)
	a.live.Add(int64(added))
	return added
}

// FindAll looks up every key (find/elements phase; exclusive access),
// re-deciding the representation first.
func (a *AutoTable[O]) FindAll(keys, dst []uint64) int {
	a.retarget()
	a.finds.Add(uint64(len(keys)))
	return a.bulk.FindAll(keys, dst)
}

// DeleteAll deletes every key (delete phase; exclusive access),
// re-deciding the representation first.
func (a *AutoTable[O]) DeleteAll(keys []uint64) int {
	a.retarget()
	a.deletes.Add(uint64(len(keys)))
	removed := a.bulk.DeleteAll(keys)
	a.live.Add(-int64(removed))
	return removed
}

// --- Memory ---

// Bytes returns the active representation's backing-array footprint.
func (a *AutoTable[O]) Bytes() int {
	m, _ := AsMemory(a.active)
	return m.Bytes()
}
