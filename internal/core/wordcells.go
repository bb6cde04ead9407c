package core

import (
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/parallel"
)

// wordCells is the cell array WordTable and CompactTable share: a
// power-of-two array of one-word elements with Empty as the empty cell,
// the Ops that hash them, and everything that reads or writes the cells
// without knowing the layout's priority order. Each table embeds it and
// declares its own exported methods as forwarders, so every phase
// method keeps its table as the declared receiver.
type wordCells[O Ops] struct {
	ops   O
	cells []uint64
	mask  int // len(cells)-1; len is a power of two
}

func newWordCells[O Ops](m int) wordCells[O] {
	return wordCells[O]{cells: make([]uint64, m), mask: m - 1}
}

// load atomically reads the cell at unnormalized position p.
func (t *wordCells[O]) load(p int) uint64 {
	return atomic.LoadUint64(&t.cells[p&t.mask])
}

// cas CASes the cell at unnormalized position p.
func (t *wordCells[O]) cas(p int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&t.cells[p&t.mask], old, new)
}

// lift maps the hash h (in [0, m)) of the element stored at unnormalized
// position p to the same unnormalized frame: the unique q <= p with
// q ≡ h (mod m) and p-q < m. Probe positions in Delete grow without
// wrapping, so position comparisons ("does this element hash at or before
// that cell?") become plain integer comparisons after lifting.
func (t *wordCells[O]) lift(h uint64, p int) int {
	return p - ((p - int(h)) & t.mask)
}

// zeroErr is the error for inserting the reserved empty element.
func (t *wordCells[O]) zeroErr() error { return reservedErr() }

// fullErr builds the ErrFull report for a saturated table. The count is
// an atomic snapshot (the insert phase is still running), so it is
// approximate but actionable in a field report.
func (t *wordCells[O]) fullErr() error {
	return fullTableErr(len(t.cells), t.countAtomic())
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
// (j, Empty, _) when the cluster ends first. site is the calling
// layout's delete chaos site. Eligibility depends on the home position
// alone, never on the priority order, so WordTable and CompactTable
// share it.
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
// them is Empty. The returned hw saves the delete loop a third hash of
// the replacement.
func (t *wordCells[O]) findReplacement(i int, site chaos.Site) (j int, w, hw uint64) {
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
		chaos.Yield(site)
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
			chaos.Yield(site)
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

// countRange counts the non-empty cells in [lo, hi): the count pass of
// the two-pass pack (CompactTable counts from its control array
// instead).
//
//phasehash:serial find/elements phase: no insert or delete is in flight, so the cells are quiescent under the plain reads; CountAtomic is the cross-phase variant
func (t *wordCells[O]) countRange(lo, hi int) int {
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
func (t *wordCells[O]) packRange(lo, hi int, dst []uint64) {
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

// countAtomic is the count with atomic cell reads: safe while another
// phase is mutating the table (used by fullErr's saturation report; the
// result is a racy snapshot). It is a blocked parallel reduce.
func (t *wordCells[O]) countAtomic() int {
	return parallel.Reduce(len(t.cells), 0,
		func(a, b int) int { return a + b },
		func(i int) int {
			if atomic.LoadUint64(&t.cells[i]) != Empty {
				return 1
			}
			return 0
		})
}

// forEach calls fn for every stored element in table order.
//
//phasehash:serial find/elements phase: no writer is in flight during the sequential scan
func (t *wordCells[O]) forEach(fn func(e uint64)) {
	for _, c := range t.cells {
		if c != Empty {
			fn(c)
		}
	}
}

// clearCells resets every cell to Empty.
//
//phasehash:serial quiescent: Clear is itself a phase barrier; nothing runs concurrently with it by contract
func (t *wordCells[O]) clearCells() {
	parallel.ForBlocked(len(t.cells), 0, func(lo, hi int) { clear(t.cells[lo:hi]) })
}

// snapshot copies the raw cell array.
//
//phasehash:serial quiescent use only: layout snapshots are taken between phases
func (t *wordCells[O]) snapshot() []uint64 {
	out := make([]uint64, len(t.cells))
	copy(out, t.cells)
	return out
}
