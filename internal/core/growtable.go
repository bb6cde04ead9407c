package core

import (
	"sync"
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/obs"
)

// GrowTable is the paper's Section 4 resizing extension (listed there as
// an outline and under future work; implemented here): a deterministic
// phase-concurrent table that grows itself during insert phases.
//
// There is one live WordTable at all times. Every insert first counts
// its call; while the count is at least half the table size, the
// goroutine that sees the threshold crossed takes the write side of a
// sync.RWMutex, rehashes every element once, on the worker pool, into a
// table of the final power-of-two size and publishes it. Inserts hold
// the read side while they probe, so a doubling runs between
// operations, never alongside one — the resize shape of Maier–Sanders'
// growing tables rather than the paper's incremental two-table
// migration.
//
// What this buys:
//
//   - Results are exact. An insert probes the one table that holds every
//     key, so the true results of a phase sum to the number of distinct
//     keys it added, on every schedule, per-element and bulk alike.
//   - The layout is deterministic. Growth keys off the call count — the
//     same count on every schedule — so the final size, and with it the
//     history-independent layout, depend only on the operations
//     performed. (Counting calls rather than distinct keys over-provisions
//     duplicate-heavy workloads; it is what keeps the size
//     schedule-independent.)
//   - The table never fills. A call is counted before it probes, so
//     every probing insert sees a table more than twice the size of all
//     calls so far: load stays below 1/2 and ErrFull cannot occur.
//
// What it costs: inserts may wait while a doubling runs. The fixed-size
// tables keep the paper's non-blocking progress; GrowTable trades it
// for the resize. Finds and deletes never lock — by the phase
// discipline ({insert}, {delete}, {find, elements}) no doubling can be
// in flight when they run.
type GrowTable[O Ops] struct {
	table atomic.Pointer[WordTable[O]]
	count atomic.Int64 // Insert calls so far (non-reserved keys), bulk and per-element
	// mu excludes doublings from inserts: inserts hold the read side
	// while probing, grow holds the write side while rehashing.
	mu sync.RWMutex
}

// minGrowSize is the smallest backing array.
const minGrowSize = 64

// NewGrowTable returns a growing table with the given initial capacity.
func NewGrowTable[O Ops](initial int) *GrowTable[O] {
	if initial < minGrowSize {
		initial = minGrowSize
	}
	g := &GrowTable[O]{}
	g.table.Store(NewWordTable[O](initial))
	return g
}

// Insert adds element v (insert phase only), growing as needed, and
// reports whether the key was absent. Like WordTable.Insert, the count
// of true results over a phase is deterministic. It panics on the
// reserved empty element; use TryInsert to get an error instead.
func (g *GrowTable[O]) Insert(v uint64) bool {
	added, err := g.TryInsert(v)
	if err != nil {
		panic("core: GrowTable: " + err.Error())
	}
	return added
}

// TryInsert is Insert returning ErrReservedKey (satisfying errors.Is)
// instead of panicking on the reserved empty element, which is not
// counted as a call. A growing table never reports ErrFull.
func (g *GrowTable[O]) TryInsert(v uint64) (bool, error) {
	if v == Empty {
		return false, reservedErr()
	}
	g.reserve(1)
	g.mu.RLock()
	added := g.table.Load().Insert(v)
	g.mu.RUnlock()
	return added, nil
}

// reserve counts n insert calls and grows the table first when the count
// reaches half its size. It runs before the caller takes the read lock.
func (g *GrowTable[O]) reserve(n int) {
	if c := int(g.count.Add(int64(n))); c >= g.table.Load().Size()/2 {
		g.grow()
	}
}

// grow doubles the table until its size exceeds twice the call count,
// rehashing once into the final size. Concurrent callers serialize on
// the write lock; the later ones find the size already sufficient.
func (g *GrowTable[O]) grow() {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.table.Load()
	c, size := int(g.count.Load()), old.Size()
	for c >= size/2 {
		size *= 2
	}
	if size == old.Size() {
		return
	}
	next := NewWordTable[O](size)
	moved := next.rehash(old)
	g.table.Store(next)
	if obs.CoreEnabled {
		obs.CoreGrow(moved)
	}
}

// rehash inserts every element of old into t, which must be empty and
// visible only to the grower, and returns how many it moved. Blocks of
// old's cells run on the worker pool; the keys are distinct and t has
// free cells, so each block runs Figure 1's concurrent insert loop
// (insertLoopFrom, which never merges or fills up here), and history
// independence gives the layout a serial loop would. Grow traffic is
// not insert traffic: insertLoopFrom publishes nothing, so nothing here
// feeds the insert counters.
func (t *WordTable[O]) rehash(old *WordTable[O]) (moved uint64) {
	return uint64(sumBlocks(len(old.cells), func(lo, hi int) (n int) {
		for j := lo; j < hi; j++ {
			v := old.load(j)
			if v == Empty {
				continue
			}
			if chaos.Enabled {
				chaos.Yield(chaos.SiteGrowRehash)
			}
			t.insertLoopFrom(v, t.home(v))
			n++
		}
		return n
	}))
}

// Find returns the element under v's key (find/elements phase only).
func (g *GrowTable[O]) Find(v uint64) (uint64, bool) { return g.table.Load().Find(v) }

// Contains is Find without the element.
func (g *GrowTable[O]) Contains(v uint64) bool { return g.table.Load().Contains(v) }

// Delete removes v's key (delete phase only).
func (g *GrowTable[O]) Delete(v uint64) bool { return g.table.Load().Delete(v) }

// Elements returns the deterministic packed contents (find/elements
// phase only).
func (g *GrowTable[O]) Elements() []uint64 { return g.table.Load().Elements() }

// ElementsInto packs the contents into dst, which must have len(dst) >=
// Count(); see WordTable.ElementsInto.
func (g *GrowTable[O]) ElementsInto(dst []uint64) int { return g.table.Load().ElementsInto(dst) }

// Count returns the stored key count (find/elements phase only).
func (g *GrowTable[O]) Count() int { return g.table.Load().Count() }

// Size returns the table's cell count.
func (g *GrowTable[O]) Size() int { return g.table.Load().Size() }

// Bytes returns the live table's backing-array footprint in bytes.
func (g *GrowTable[O]) Bytes() int { return g.table.Load().Bytes() }

// Clear empties the live table and restarts the call count (quiescent
// use only). The size stays, so refilling a cleared table builds the
// layout a fresh table of that size would.
func (g *GrowTable[O]) Clear() {
	g.table.Load().Clear()
	g.count.Store(0)
}

// Snapshot copies the raw cell array (quiescent use only), so tests can
// compare quiescent layouts byte-for-byte across schedules.
func (g *GrowTable[O]) Snapshot() []uint64 { return g.table.Load().Snapshot() }

// CheckInvariant verifies the table's ordering invariant (quiescent use
// only).
func (g *GrowTable[O]) CheckInvariant() error { return g.table.Load().CheckInvariant() }
