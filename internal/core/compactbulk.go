package core

import (
	"sync/atomic"

	"phasehash/internal/hashx"
	"phasehash/internal/obs"
)

// Bulk phase kernels for CompactTable: one staged block kernel per
// operation, driven like WordTable's (bulk.go). The staging differs by
// operation to match what the probe pass actually reads first:
//
//   - FindAll stages ctrl *words*, not home cells — the whole point of
//     the compact layout is that a find touches cells only on a
//     fingerprint match, so prefetching the cell would drag in exactly
//     the line the ctrl array lets most probes skip. One ctrl word
//     covers eight slots, so staged words usually cover the whole
//     probe.
//   - InsertAll and DeleteAll stage the home *cell* plus its ctrl word:
//     their probe loops compare priorities at every slot, so the cell
//     line is needed immediately, and the ctrl word is where syncCtrl
//     will publish.

// stage is WordTable.stage for the compact layout: it hashes a chunk
// into hs (home and fingerprint are cheap shifts off the hash at probe
// time), then touches each home's ctrl word and, when cells is set, its
// home cell.
func (t *CompactTable[O]) stage(keys []uint64, hs []uint64, cells bool) {
	for i, k := range keys {
		hs[i] = t.ops.Hash(k)
	}
	for _, h := range hs {
		p := int(h) & t.mask
		if cells {
			atomic.LoadUint64(&t.cells[p])
		}
		t.loadCtrlWord(p)
	}
}

// InsertAll inserts every element of elems (insert phase only) and
// returns how many grew the element count; semantics exactly as
// WordTable.InsertAll.
func (t *CompactTable[O]) InsertAll(elems []uint64) int {
	n, err := t.TryInsertAll(elems)
	if err != nil {
		panic("core: CompactTable: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning errors instead of panicking; see
// WordTable.TryInsertAll for the saturation semantics.
func (t *CompactTable[O]) TryInsertAll(elems []uint64) (int, error) {
	n, undo, err := tryInsertBlocks(len(elems), func(lo, hi int) (int, []homeless[uint64], error) {
		return t.insertRange(elems, lo, hi)
	})
	t.unwind(undo)
	return n, err
}

// insertRange is the insert block kernel over elems[lo:hi); see
// WordTable.insertRange, whose telemetry it repeats: one core publish
// per call, never per key.
func (t *CompactTable[O]) insertRange(elems []uint64, lo, hi int) (added int, undo []homeless[uint64], err error) {
	var hs [stageChunk]uint64
	var coreOps, coreSteps uint64
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(elems[base:end], hs[:end-base], true)
		for i := base; i < end; i++ {
			v := elems[i]
			if v == Empty {
				if err == nil {
					err = reservedErr()
				}
				continue
			}
			h := hs[i-base]
			a, full, s, carried := t.insertLoopFrom(v, h, int(h)&t.mask)
			if full {
				if err == nil {
					err = t.fullErr()
				}
				if carried != v {
					undo = append(undo, homeless[uint64]{v, carried})
				}
				continue
			}
			coreOps++
			coreSteps += uint64(s)
			if obs.Enabled {
				obs.RecordInsert(int(h)&t.mask, s)
			}
			if a {
				added++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreInsert(lo>>6, coreOps, coreSteps)
	}
	return added, undo, err
}

// FindAll looks up every key of keys (find/elements phase only) and
// returns how many are present; dst as in WordTable.FindAll.
func (t *CompactTable[O]) FindAll(keys []uint64, dst []uint64) int {
	checkFindDst("CompactTable", len(keys), dst)
	return sumBlocks(len(keys), func(lo, hi int) int {
		return t.findRange(keys, dst, lo, hi)
	})
}

// findRange is the find block kernel over keys[lo:hi). Its stage pass
// touches the home ctrl words, not the home cells (see the file
// comment).
func (t *CompactTable[O]) findRange(keys, dst []uint64, lo, hi int) int {
	var hs [stageChunk]uint64
	var coreSteps uint64
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(keys[base:end], hs[:end-base], false)
		for i := base; i < end; i++ {
			h := hs[i-base]
			e, ok, s := t.findFrom(keys[i], h, int(h)&t.mask, hashx.Fingerprint(h))
			coreSteps += uint64(s)
			if obs.Enabled {
				obs.RecordFind(int(h)&t.mask, s)
			}
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
	return n
}

// ContainsAll reports how many of the keys are present (find/elements
// phase only).
func (t *CompactTable[O]) ContainsAll(keys []uint64) int {
	return t.FindAll(keys, nil)
}

// DeleteAll deletes every key of keys (delete phase only) and returns
// how many were removed by this call's deletes; semantics as
// WordTable.DeleteAll.
func (t *CompactTable[O]) DeleteAll(keys []uint64) int {
	return sumBlocks(len(keys), func(lo, hi int) int {
		return t.deleteRange(keys, lo, hi)
	})
}

// deleteRange is the delete block kernel over keys[lo:hi).
func (t *CompactTable[O]) deleteRange(keys []uint64, lo, hi int) int {
	var hs [stageChunk]uint64
	var coreSteps uint64
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(keys[base:end], hs[:end-base], true)
		for i := base; i < end; i++ {
			h := hs[i-base]
			d, s := t.deleteFrom(keys[i], h, int(h)&t.mask)
			coreSteps += uint64(s)
			if obs.Enabled {
				obs.RecordDelete(int(h)&t.mask, s)
			}
			if d {
				n++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreDelete(lo>>6, uint64(hi-lo), coreSteps)
	}
	return n
}
