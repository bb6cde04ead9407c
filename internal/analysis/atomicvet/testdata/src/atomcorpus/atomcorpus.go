// Package atomcorpus exercises atomicvet: a field accessed through
// sync/atomic anywhere in the package must not be plainly loaded or
// stored elsewhere, unless the enclosing function carries a
// //phasehash:serial <reason> annotation arguing exclusive access.
package atomcorpus

import "sync/atomic"

type counterTable struct {
	count uint64 // 64-bit field first: aligned even on 32-bit targets
	cells []uint64
}

// casInsert establishes the shadows: cells elements and count are both
// accessed atomically here.
func (t *counterTable) casInsert(i int, v uint64) bool {
	if atomic.CompareAndSwapUint64(&t.cells[i], 0, v) {
		atomic.AddUint64(&t.count, 1)
		return true
	}
	return false
}

func (t *counterTable) load(i int) uint64 {
	return atomic.LoadUint64(&t.cells[i])
}

func (t *counterTable) plainScan() uint64 {
	var sum uint64
	for _, c := range t.cells { // want `ranges over atomcorpus\.counterTable\.cells`
		sum += c
	}
	sum += t.count // want `plainly accesses atomcorpus\.counterTable\.count`
	return sum
}

func (t *counterTable) plainIndex(i int) uint64 {
	return t.cells[i] // want `indexes atomcorpus\.counterTable\.cells`
}

func (t *counterTable) bulkCopy(dst []uint64) {
	copy(dst, t.cells) // want `bulk-copies atomcorpus\.counterTable\.cells`
}

// A slice of a shadowed field aliases its elements, so slicing it is a
// plain access however the slice is used; clear is a plain store.
func (t *counterTable) plainSlices(lo, hi int, dst []uint64) uint64 {
	var sum uint64
	for _, c := range t.cells[lo:hi] { // want `slices atomcorpus\.counterTable\.cells`
		sum += c
	}
	sum += (t.cells[lo:hi])[0]         // want `slices atomcorpus\.counterTable\.cells`
	copy(dst, t.cells[lo:hi:hi])       // want `slices atomcorpus\.counterTable\.cells`
	dst = append(dst, t.cells[lo:]...) // want `slices atomcorpus\.counterTable\.cells`
	clear(t.cells[lo:hi])              // want `slices atomcorpus\.counterTable\.cells`
	clear(t.cells)                     // want `clears atomcorpus\.counterTable\.cells`
	alias := t.cells[lo:hi]            // want `slices atomcorpus\.counterTable\.cells`
	return sum + alias[0] + uint64(len(dst))
}

// serialRangeCount touches the shadowed field only through a slice
// alias; the annotation is exercised, not stale.
//
//phasehash:serial quiescent between phases: no CAS can be in flight during the block count
func (t *counterTable) serialRangeCount(lo, hi int) int {
	n := 0
	cells := t.cells[lo:hi]
	for _, c := range cells {
		if c != 0 {
			n++
		}
	}
	return n
}

// serialClear zeroes a block with the clear builtin under the same
// sanction.
//
//phasehash:serial quiescent: the clear is itself a phase barrier
func (t *counterTable) serialClear(lo, hi int) { clear(t.cells[lo:hi]) }

// serialScan is the sanctioned escape hatch: the reason documents the
// exclusivity argument and suppresses the mix diagnostics.
//
//phasehash:serial quiescent between phases: no CAS can be in flight when the scan runs
func (t *counterTable) serialScan() uint64 {
	var sum uint64
	for _, c := range t.cells {
		sum += c
	}
	return sum + t.count
}

// plainTable's field is never touched atomically; plain access is fine
// everywhere and needs no annotation.
type plainTable struct {
	hot uint64
}

func (p *plainTable) bump() { p.hot++ }

// staleSerial's annotation has rotted: nothing in the body touches an
// atomic-shadowed field anymore.
//
//phasehash:serial legacy reason that no longer applies // want `annotation has rotted`
func (p *plainTable) staleSerial() { p.hot++ }

// reasonless shadows a real access (so the annotation is not stale) but
// gives no exclusivity argument.
//
//phasehash:serial // want `requires a reason`
func (t *counterTable) reasonless() uint64 { return t.count }

// misaligned puts an atomically-accessed 64-bit field at offset 4 under
// 32-bit alignment rules: sync/atomic would fault on 386.
type misaligned struct {
	flag bool
	n    uint64 // want `sits at offset 4 under 32-bit alignment rules`
}

func (m *misaligned) bump() { atomic.AddUint64(&m.n, 1) }
