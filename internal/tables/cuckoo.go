package tables

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"phasehash/internal/core"
	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

// spinLock is a one-word test-and-test-and-set spinlock. The cuckoo table
// stores one per cell — the paper remarks that cuckooHash's Elements() is
// slower precisely because each entry carries a lock, and we reproduce
// that footprint.
type spinLock struct{ v atomic.Uint32 }

func (l *spinLock) Lock() {
	for {
		if l.v.CompareAndSwap(0, 1) {
			return
		}
		for l.v.Load() != 0 {
			runtime.Gosched()
		}
	}
}

func (l *spinLock) TryLock() bool { return l.v.CompareAndSwap(0, 1) }

func (l *spinLock) Unlock() { l.v.Store(0) }

// maxEvictions bounds a cuckoo displacement chain before its carried
// element goes to the stash (the reproduction does not resize, matching
// the benchmarked configuration).
const maxEvictions = 500

// stashSize is how many elements the stash holds. A one-slot two-choice
// table cannot hold a set whose cuckoo graph (cells as vertices, each
// key an edge between its two cells) has a component with more keys
// than cells; a stash of s takes s such excess keys (Kirsch, Mitzenmacher
// and Wieder), so only a set with more than s of them fails.
const stashSize = 4

// CuckooTable is cuckooHash: the paper's phase-concurrent two-choice
// cuckoo table. An insert locks its element's two candidate cells in
// increasing address order (deadlock-free), places the element in an
// empty one or evicts a resident, and recursively reinserts the victim.
// A victim whose chain overruns maxEvictions goes to a small stash.
// Collisions resolve by arrival order, so the layout is
// non-deterministic.
type CuckooTable[O core.Ops] struct {
	ops   O
	cells []uint64
	locks []spinLock
	mask  int
	count atomic.Int64 // stored elements, stashed ones included

	// stash[:stashN] holds the stashed elements; writers hold stashLock.
	// Every other operation skips the stash while stashN is 0.
	stashLock spinLock
	stashN    atomic.Int32
	stash     [stashSize]uint64
}

// NewCuckoo returns a cuckooHash table with at least size cells.
func NewCuckoo[O core.Ops](size int) *CuckooTable[O] {
	m := ceilPow2(size)
	return &CuckooTable[O]{
		cells: make([]uint64, m),
		locks: make([]spinLock, m),
		mask:  m - 1,
	}
}

// Size implements Table.
func (t *CuckooTable[O]) Size() int { return len(t.cells) }

// slots returns the element's two candidate cells, h1 != h2 whenever the
// table has more than one cell.
func (t *CuckooTable[O]) slots(e uint64) (int, int) {
	h := t.ops.Hash(e)
	h1 := int(h) & t.mask
	h2 := int(hashx.Mix64(h+0x1234_5678_9abc_def1)) & t.mask
	if h2 == h1 {
		h2 = (h1 + 1) & t.mask
	}
	return h1, h2
}

// Insert implements Table. An insert that displaces residents carries the
// victim forward iteratively: place v, release the locks, and repeat with
// the evicted element (each round locks only the current element's two
// cells, always in address order, so no deadlock is possible). A chain
// longer than maxEvictions stashes the element it carries.
func (t *CuckooTable[O]) Insert(v uint64) bool {
	if v == core.Empty {
		panic("tables: cannot insert the reserved empty element")
	}
	if t.stashN.Load() > 0 && t.mergeStashed(v) {
		return false
	}
	from := -1 // cell the carried element was just evicted from
	for depth := 0; ; depth++ {
		if depth > maxEvictions {
			t.stashCarried(v)
			return true
		}
		h1, h2 := t.slots(v)
		lo, hi := h1, h2
		if lo > hi {
			lo, hi = hi, lo
		}
		t.locks[lo].Lock()
		t.locks[hi].Lock()

		dup := false
		for _, s := range [2]int{h1, h2} {
			c := atomic.LoadUint64(&t.cells[s])
			if c != core.Empty && t.ops.Cmp(c, v) == 0 {
				atomic.StoreUint64(&t.cells[s], t.ops.Merge(c, v))
				dup = true
				break
			}
		}
		if dup {
			t.locks[hi].Unlock()
			t.locks[lo].Unlock()
			// A duplicate can only be the original element (table keys
			// are unique), so the element count did not grow.
			return depth > 0
		}
		for _, s := range [2]int{h1, h2} {
			if atomic.LoadUint64(&t.cells[s]) == core.Empty {
				atomic.StoreUint64(&t.cells[s], v)
				t.locks[hi].Unlock()
				t.locks[lo].Unlock()
				t.count.Add(1)
				return true
			}
		}
		// Both cells occupied: evict a resident and carry it forward. A
		// carried element must not evict from the cell it was just
		// displaced out of (that resident displaced *it*), or the pair
		// would ping-pong forever; use the alternate cell.
		target := h1
		if target == from {
			target = h2
		}
		victim := atomic.LoadUint64(&t.cells[target])
		atomic.StoreUint64(&t.cells[target], v)
		t.locks[hi].Unlock()
		t.locks[lo].Unlock()
		v = victim
		from = target
	}
}

// mergeStashed merges v into the stashed element with its key, if there
// is one, and reports whether there was.
func (t *CuckooTable[O]) mergeStashed(v uint64) bool {
	t.stashLock.Lock()
	defer t.stashLock.Unlock()
	i := t.stashIndex(v)
	if i >= 0 {
		t.stash[i] = t.ops.Merge(t.stash[i], v)
	}
	return i >= 0
}

// stashCarried stashes an element whose eviction chain overran
// maxEvictions. Only a full stash makes the table too full.
func (t *CuckooTable[O]) stashCarried(v uint64) {
	t.stashLock.Lock()
	defer t.stashLock.Unlock()
	n := t.stashN.Load()
	if n == stashSize {
		panic(fmt.Sprintf("tables: cuckooHash eviction chain exceeded %d with the stash of %d full (table too full, size %d)", maxEvictions, stashSize, len(t.cells)))
	}
	t.stash[n] = v
	t.stashN.Store(n + 1)
	t.count.Add(1)
}

// stashIndex returns the stash slot holding v's key, or -1. The caller
// holds stashLock, or runs in the find phase, which excludes writers.
func (t *CuckooTable[O]) stashIndex(v uint64) int {
	for i := range int(t.stashN.Load()) {
		if t.ops.Cmp(v, t.stash[i]) == 0 {
			return i
		}
	}
	return -1
}

// Find implements Table: two probes, no locks (find phase excludes
// writers), and the stash when it holds anything.
func (t *CuckooTable[O]) Find(v uint64) (uint64, bool) {
	h1, h2 := t.slots(v)
	for _, s := range [2]int{h1, h2} {
		c := atomic.LoadUint64(&t.cells[s])
		if c != core.Empty && t.ops.Cmp(v, c) == 0 {
			return c, true
		}
	}
	if t.stashN.Load() > 0 {
		if i := t.stashIndex(v); i >= 0 {
			return t.stash[i], true
		}
	}
	return core.Empty, false
}

// Delete implements Table: lock the slot holding the key and clear it,
// or remove the key from the stash.
func (t *CuckooTable[O]) Delete(v uint64) bool {
	h1, h2 := t.slots(v)
	for _, s := range [2]int{h1, h2} {
		t.locks[s].Lock()
		c := atomic.LoadUint64(&t.cells[s])
		if c != core.Empty && t.ops.Cmp(v, c) == 0 {
			atomic.StoreUint64(&t.cells[s], core.Empty)
			t.locks[s].Unlock()
			t.count.Add(-1)
			return true
		}
		t.locks[s].Unlock()
	}
	if t.stashN.Load() > 0 {
		return t.unstash(v)
	}
	return false
}

// unstash deletes v's key from the stash, reporting success.
func (t *CuckooTable[O]) unstash(v uint64) bool {
	t.stashLock.Lock()
	defer t.stashLock.Unlock()
	i := t.stashIndex(v)
	if i < 0 {
		return false
	}
	n := t.stashN.Load() - 1
	t.stash[i], t.stash[n] = t.stash[n], core.Empty
	t.stashN.Store(n)
	t.count.Add(-1)
	return true
}

// Elements implements Table (order is non-deterministic across runs with
// different schedules, deterministic for a fixed layout).
//
//phasehash:serial find/elements phase: the phase discipline keeps writers out while the cells are packed
func (t *CuckooTable[O]) Elements() []uint64 {
	elems := parallel.Pack(t.cells, func(i int) bool { return t.cells[i] != core.Empty })
	if n := t.stashN.Load(); n > 0 {
		elems = append(elems, t.stash[:n]...)
	}
	return elems
}

// Count implements Table; the count includes the stash.
func (t *CuckooTable[O]) Count() int { return int(t.count.Load()) }
