package core

import "sync/atomic"

// CompactTable's bulk phase methods are forwarders into the shared
// block kernels and drivers (bulk.go). What is the compact layout's own
// is its stage pass, which differs by operation to match what the probe
// pass actually reads first:
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
// time), then touches each home's ctrl word and, unless the chunk is a
// find's, its home cell.
func (t *CompactTable[O]) stage(keys []uint64, hs []uint64, find bool) {
	hs = hs[:len(keys)]
	for i, k := range keys {
		hs[i] = t.ops.Hash(k)
	}
	for _, h := range hs {
		p := int(h) & t.mask
		if !find {
			atomic.LoadUint64(&t.cells[p])
		}
		t.loadCtrlWord(p)
	}
}

// InsertAll inserts every element of elems (insert phase only) and
// returns how many grew the element count; semantics exactly as
// WordTable.InsertAll.
func (t *CompactTable[O]) InsertAll(elems []uint64) int {
	return insertAll(t, "CompactTable", elems)
}

// TryInsertAll is InsertAll returning errors instead of panicking; see
// WordTable.TryInsertAll for the saturation semantics.
func (t *CompactTable[O]) TryInsertAll(elems []uint64) (int, error) {
	return tryInsertAll(t, elems)
}

// FindAll looks up every key of keys (find/elements phase only) and
// returns how many are present; dst as in WordTable.FindAll.
func (t *CompactTable[O]) FindAll(keys []uint64, dst []uint64) int {
	return findAll(t, "CompactTable", keys, dst)
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
	return deleteAll(t, keys)
}
