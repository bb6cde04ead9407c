package tables

import (
	"fmt"

	"phasehash/internal/core"
)

// SerialHI is the sequential history-independent linear-probing table of
// Blelloch and Golovin (serialHash-HI): the structure linearHash-D
// parallelizes. Single-goroutine use only.
type SerialHITable[O core.Ops] struct {
	ops   O
	cells []uint64
	mask  int
	n     int
}

// NewSerialHI returns a sequential history-independent table with at
// least size cells (rounded up to a power of two).
func NewSerialHITable[O core.Ops](size int) *SerialHITable[O] {
	m := ceilPow2(size)
	return &SerialHITable[O]{cells: make([]uint64, m), mask: m - 1}
}

func ceilPow2(size int) int {
	if size < 1 {
		size = 1
	}
	m := 1
	for m < size {
		m <<= 1
	}
	return m
}

// Size implements Table.
func (t *SerialHITable[O]) Size() int { return len(t.cells) }

// Count implements Table.
func (t *SerialHITable[O]) Count() int { return t.n }

func (t *SerialHITable[O]) home(e uint64) int { return int(t.ops.Hash(e)) & t.mask }

// Insert implements Table: linear probing with priority swaps — the
// sequential version of Figure 1's INSERT.
func (t *SerialHITable[O]) Insert(v uint64) bool {
	if v == core.Empty {
		panic("tables: cannot insert the reserved empty element")
	}
	i := t.home(v)
	steps := 0
	for {
		if steps > len(t.cells) {
			panic(fmt.Sprintf("tables: serialHash-HI full (size %d)", len(t.cells)))
		}
		steps++
		c := t.cells[i&t.mask]
		if c == core.Empty {
			t.cells[i&t.mask] = v
			t.n++
			return true
		}
		cmp := t.ops.Cmp(c, v)
		switch {
		case cmp == 0:
			t.cells[i&t.mask] = t.ops.Merge(c, v)
			return false
		case cmp > 0:
			i++
		default:
			t.cells[i&t.mask] = v
			v = c
			i++
		}
	}
}

// Find implements Table: probing may stop early at the first cell with
// priority <= v's, the HI table's early-exit property for absent keys.
func (t *SerialHITable[O]) Find(v uint64) (uint64, bool) {
	i := t.home(v)
	for {
		c := t.cells[i&t.mask]
		if c == core.Empty {
			return core.Empty, false
		}
		cmp := t.ops.Cmp(v, c)
		if cmp > 0 {
			return core.Empty, false
		}
		if cmp == 0 {
			return c, true
		}
		i++
	}
}

// Delete implements Table: fill the hole with the next lower-priority
// element that hashes at or before it, recursively (no tombstones).
func (t *SerialHITable[O]) Delete(v uint64) bool {
	i := t.home(v)
	k := i
	for {
		c := t.cells[k&t.mask]
		if c == core.Empty || t.ops.Cmp(v, c) >= 0 {
			break
		}
		k++
	}
	c := t.cells[k&t.mask]
	if c == core.Empty || t.ops.Cmp(v, c) != 0 {
		return false
	}
	t.n--
	for {
		j, w := t.findReplacement(k)
		t.cells[k&t.mask] = w
		if w == core.Empty {
			return true
		}
		k = j
	}
}

func (t *SerialHITable[O]) findReplacement(i int) (int, uint64) {
	j := i
	for {
		j++
		w := t.cells[j&t.mask]
		if w == core.Empty || t.lift(t.ops.Hash(w)&uint64(t.mask), j) <= i {
			return j, w
		}
	}
}

func (t *SerialHITable[O]) lift(h uint64, p int) int {
	return p - ((p - int(h)) & t.mask)
}

// Elements implements Table; the output order is deterministic (the HI
// layout is unique for a given set).
func (t *SerialHITable[O]) Elements() []uint64 {
	out := make([]uint64, 0, t.n)
	for _, c := range t.cells {
		if c != core.Empty {
			out = append(out, c)
		}
	}
	return out
}

// Snapshot copies the raw cells; tests compare it against
// core.WordTable.Snapshot to confirm the parallel table reproduces the
// sequential HI layout exactly.
func (t *SerialHITable[O]) Snapshot() []uint64 {
	out := make([]uint64, len(t.cells))
	copy(out, t.cells)
	return out
}

// SerialHD is standard sequential linear probing (serialHash-HD):
// first-empty insertion, back-shifting deletion. History-dependent.
type SerialHDTable[O core.Ops] struct {
	ops   O
	cells []uint64
	mask  int
	n     int
}

// NewSerialHD returns a sequential standard linear-probing table.
func NewSerialHDTable[O core.Ops](size int) *SerialHDTable[O] {
	m := ceilPow2(size)
	return &SerialHDTable[O]{cells: make([]uint64, m), mask: m - 1}
}

// Size implements Table.
func (t *SerialHDTable[O]) Size() int { return len(t.cells) }

// Count implements Table.
func (t *SerialHDTable[O]) Count() int { return t.n }

func (t *SerialHDTable[O]) home(e uint64) int { return int(t.ops.Hash(e)) & t.mask }

// Insert implements Table: classic first-empty linear probing.
func (t *SerialHDTable[O]) Insert(v uint64) bool {
	if v == core.Empty {
		panic("tables: cannot insert the reserved empty element")
	}
	i := t.home(v)
	steps := 0
	for {
		if steps > len(t.cells) {
			panic(fmt.Sprintf("tables: serialHash-HD full (size %d)", len(t.cells)))
		}
		steps++
		c := t.cells[i&t.mask]
		if c == core.Empty {
			t.cells[i&t.mask] = v
			t.n++
			return true
		}
		if t.ops.Cmp(c, v) == 0 {
			t.cells[i&t.mask] = t.ops.Merge(c, v)
			return false
		}
		i++
	}
}

// Find implements Table: scan to the first empty cell.
func (t *SerialHDTable[O]) Find(v uint64) (uint64, bool) {
	i := t.home(v)
	for {
		c := t.cells[i&t.mask]
		if c == core.Empty {
			return core.Empty, false
		}
		if t.ops.Cmp(v, c) == 0 {
			return c, true
		}
		i++
	}
}

// Delete implements Table: back-shift deletion (Knuth's algorithm R):
// repeatedly pull back the next element in the cluster whose home lies at
// or before the hole.
func (t *SerialHDTable[O]) Delete(v uint64) bool {
	i := t.home(v)
	k := i
	for {
		c := t.cells[k&t.mask]
		if c == core.Empty {
			return false
		}
		if t.ops.Cmp(v, c) == 0 {
			break
		}
		k++
	}
	t.n--
	for {
		// Find the next element in the cluster that may move into k.
		j := k
		for {
			j++
			w := t.cells[j&t.mask]
			if w == core.Empty {
				t.cells[k&t.mask] = core.Empty
				return true
			}
			if t.lift(t.ops.Hash(w)&uint64(t.mask), j) <= k {
				t.cells[k&t.mask] = w
				k = j
				break
			}
		}
	}
}

func (t *SerialHDTable[O]) lift(h uint64, p int) int {
	return p - ((p - int(h)) & t.mask)
}

// Elements implements Table (order is history-dependent).
func (t *SerialHDTable[O]) Elements() []uint64 {
	out := make([]uint64, 0, t.n)
	for _, c := range t.cells {
		if c != core.Empty {
			out = append(out, c)
		}
	}
	return out
}

// The sequential baselines implement Bulk as plain loops on the calling
// goroutine, so their phases stay one-threaded behind tables.InsertAll,
// FindAll and DeleteAll.

// InsertAll implements Bulk sequentially.
func (t *SerialHITable[O]) InsertAll(elems []uint64) int { return serialInsertAll(t, elems) }

// FindAll implements Bulk sequentially.
func (t *SerialHITable[O]) FindAll(keys, dst []uint64) int { return serialFindAll(t, keys, dst) }

// DeleteAll implements Bulk sequentially.
func (t *SerialHITable[O]) DeleteAll(keys []uint64) int { return serialDeleteAll(t, keys) }

// InsertAll implements Bulk sequentially.
func (t *SerialHDTable[O]) InsertAll(elems []uint64) int { return serialInsertAll(t, elems) }

// FindAll implements Bulk sequentially.
func (t *SerialHDTable[O]) FindAll(keys, dst []uint64) int { return serialFindAll(t, keys, dst) }

// DeleteAll implements Bulk sequentially.
func (t *SerialHDTable[O]) DeleteAll(keys []uint64) int { return serialDeleteAll(t, keys) }

func serialInsertAll(t Table, elems []uint64) int {
	n := 0
	for _, e := range elems {
		if t.Insert(e) {
			n++
		}
	}
	return n
}

func serialFindAll(t Table, keys, dst []uint64) int {
	n := 0
	for i, k := range keys {
		e, ok := t.Find(k)
		if ok {
			n++
		}
		if dst != nil {
			dst[i] = e
		}
	}
	return n
}

func serialDeleteAll(t Table, keys []uint64) int {
	n := 0
	for _, k := range keys {
		if t.Delete(k) {
			n++
		}
	}
	return n
}
