package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

// layoutBytes serialises a quiescent layout for byte-level comparison.
func layoutBytes(cells []uint64) []byte {
	var buf bytes.Buffer
	for _, c := range cells {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], c)
		buf.Write(w[:])
	}
	return buf.Bytes()
}

// The bulk kernels must be observationally identical to the per-element
// loops: same quiescent layout (byte-for-byte), same counts — across
// worker counts, against a single-goroutine sequential reference.
func TestBulkMatchesSequentialReference(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1 << 12, 1 << 15} {
		keys := randKeys(n, 0xb01d)
		size := 4*n + 16

		// Sequential HI reference: one goroutine, per-element ops.
		old := parallel.SetNumWorkers(1)
		ref := buildSerial(keys, size)
		refLayout := layoutBytes(ref.Snapshot())
		refCount := ref.Count()
		// Reference delete of every 3rd key.
		for i := 0; i < n; i += 3 {
			ref.Delete(keys[i])
		}
		refDelLayout := layoutBytes(ref.Snapshot())
		parallel.SetNumWorkers(old)

		for _, w := range []int{1, 2, 4, 8} {
			prev := parallel.SetNumWorkers(w)
			tab := NewWordTable[SetOps](size)
			added := tab.InsertAll(keys)
			if got := layoutBytes(tab.Snapshot()); !bytes.Equal(got, refLayout) {
				t.Fatalf("n=%d w=%d: InsertAll layout differs from sequential reference", n, w)
			}
			if added != refCount {
				t.Fatalf("n=%d w=%d: InsertAll added %d, reference count %d", n, w, added, refCount)
			}

			// FindAll over present and absent keys.
			probes := make([]uint64, 0, 2*n)
			probes = append(probes, keys...)
			for i := 0; i < n; i++ {
				probes = append(probes, keys[i]+uint64(4*n)+100) // certainly absent
			}
			dst := make([]uint64, len(probes))
			found := tab.FindAll(probes, dst)
			if found != n {
				t.Fatalf("n=%d w=%d: FindAll found %d of %d present probes", n, w, found, n)
			}
			if c := tab.ContainsAll(probes); c != found {
				t.Fatalf("n=%d w=%d: ContainsAll %d != FindAll %d", n, w, c, found)
			}
			for i := 0; i < n; i++ {
				if dst[i] != keys[i] {
					t.Fatalf("n=%d w=%d: FindAll dst[%d] = %d, want %d", n, w, i, dst[i], keys[i])
				}
				if dst[n+i] != Empty {
					t.Fatalf("n=%d w=%d: FindAll absent probe wrote %d", n, w, dst[n+i])
				}
			}

			// DeleteAll of every 3rd key matches the reference layout.
			var del []uint64
			for i := 0; i < n; i += 3 {
				del = append(del, keys[i])
			}
			tab.DeleteAll(del)
			if got := layoutBytes(tab.Snapshot()); !bytes.Equal(got, refDelLayout) {
				t.Fatalf("n=%d w=%d: DeleteAll layout differs from sequential reference", n, w)
			}
			if err := tab.CheckInvariant(); err != nil {
				t.Fatalf("n=%d w=%d: invariant after DeleteAll: %v", n, w, err)
			}
			parallel.SetNumWorkers(prev)
		}
	}
}

// Bulk and per-element paths must agree with each other directly (not
// just via the reference) — including Elements order.
func TestBulkMatchesPerElementParallel(t *testing.T) {
	n := 1 << 14
	keys := randKeys(n, 0xfeed)
	size := 4 * n
	old := parallel.SetNumWorkers(4)
	defer parallel.SetNumWorkers(old)

	perElem := buildParallel(keys, size)
	bulk := NewWordTable[SetOps](size)
	bulk.InsertAll(keys)

	pe := perElem.Elements()
	be := bulk.Elements()
	if len(pe) != len(be) {
		t.Fatalf("Elements length: per-element %d, bulk %d", len(pe), len(be))
	}
	for i := range pe {
		if pe[i] != be[i] {
			t.Fatalf("Elements[%d]: per-element %d, bulk %d", i, pe[i], be[i])
		}
	}
	if !bytes.Equal(layoutBytes(perElem.Snapshot()), layoutBytes(bulk.Snapshot())) {
		t.Fatal("quiescent layouts differ between per-element and bulk insert")
	}
}

func TestTryInsertAllReservedAndFull(t *testing.T) {
	tab := NewWordTable[SetOps](8)
	added, err := tab.TryInsertAll([]uint64{1, Empty, 2})
	if !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsertAll with Empty: err = %v, want ErrReservedKey", err)
	}
	if added != 2 {
		t.Fatalf("TryInsertAll added %d, want 2", added)
	}

	small := NewWordTable[SetOps](4)
	many := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	_, err = small.TryInsertAll(many)
	if !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsertAll on saturated table: err = %v, want ErrFull", err)
	}
}

func TestInsertAllPanicsOnFull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InsertAll on saturated table did not panic")
		}
	}()
	NewWordTable[SetOps](4).InsertAll([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
}

// Pointer-table bulk kernels against the per-element path.
func TestPtrBulkMatchesPerElement(t *testing.T) {
	n := 1 << 12
	elems := recKeys(n, 0xcafe)
	old := parallel.SetNumWorkers(4)
	defer parallel.SetNumWorkers(old)

	perElem := NewPtrTable[rec, recOps](4 * n)
	parallel.ForGrain(n, 1, func(i int) { perElem.Insert(elems[i]) })
	bulk := NewPtrTable[rec, recOps](4 * n)
	added := bulk.InsertAll(elems)
	if added != perElem.Count() {
		t.Fatalf("InsertAll added %d, per-element count %d", added, perElem.Count())
	}

	pe := perElem.Elements()
	be := bulk.Elements()
	if len(pe) != len(be) {
		t.Fatalf("Elements length: per-element %d, bulk %d", len(pe), len(be))
	}
	for i := range pe {
		if pe[i].key != be[i].key || pe[i].val != be[i].val {
			t.Fatalf("Elements[%d]: per-element %+v, bulk %+v", i, *pe[i], *be[i])
		}
	}

	// FindAll: all inserted keys present, shifted keys absent.
	probes := make([]*rec, n)
	for i := range probes {
		probes[i] = &rec{key: elems[i].key}
	}
	dst := make([]*rec, n)
	if found := bulk.FindAll(probes, dst); found != n {
		t.Fatalf("FindAll found %d of %d", found, n)
	}
	for i := range dst {
		if dst[i] == nil || dst[i].key != elems[i].key {
			t.Fatalf("FindAll dst[%d] wrong", i)
		}
	}

	// DeleteAll every other key; compare against per-element deletes.
	var del []*rec
	for i := 0; i < n; i += 2 {
		del = append(del, &rec{key: elems[i].key})
	}
	bulk.DeleteAll(del)
	parallel.ForGrain(len(del), 1, func(i int) { perElem.Delete(del[i]) })
	pe = perElem.Elements()
	be = bulk.Elements()
	if len(pe) != len(be) {
		t.Fatalf("post-delete Elements length: per-element %d, bulk %d", len(pe), len(be))
	}
	for i := range pe {
		if pe[i].key != be[i].key {
			t.Fatalf("post-delete Elements[%d]: per-element key %d, bulk key %d", i, pe[i].key, be[i].key)
		}
	}
	if err := bulk.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPtrTryInsertAllNil(t *testing.T) {
	tab := NewPtrTable[rec, recOps](16)
	added, err := tab.TryInsertAll([]*rec{{key: 1}, nil, {key: 2}})
	if !errors.Is(err, ErrNilValue) {
		t.Fatalf("TryInsertAll with nil: err = %v, want ErrNilValue", err)
	}
	if added != 2 {
		t.Fatalf("TryInsertAll added %d, want 2", added)
	}
}

// Growing-table bulk kernels: same quiescent snapshot as per-element
// inserts across worker counts, including growth during the phase.
func TestGrowBulkMatchesPerElement(t *testing.T) {
	n := 1 << 13
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashx.At(0x9e77, i)%uint64(2*n) + 1
	}
	old := parallel.SetNumWorkers(4)
	defer parallel.SetNumWorkers(old)

	perElem := NewGrowTable[IdentOps](64)
	parallel.ForGrain(n, 1, func(i int) { perElem.Insert(keys[i]) })

	bulk := NewGrowTable[IdentOps](64)
	bulk.InsertAll(keys)

	if !bytes.Equal(layoutBytes(perElem.Snapshot()), layoutBytes(bulk.Snapshot())) {
		t.Fatal("grow-table quiescent layouts differ between per-element and bulk insert")
	}

	if found := bulk.ContainsAll(keys); found != n {
		t.Fatalf("ContainsAll found %d of %d inserted keys", found, n)
	}
	dst := make([]uint64, n)
	bulk.FindAll(keys, dst)
	for i := range dst {
		if dst[i] != keys[i] {
			t.Fatalf("FindAll dst[%d] = %d, want %d", i, dst[i], keys[i])
		}
	}

	var del []uint64
	for i := 0; i < n; i += 3 {
		del = append(del, keys[i])
	}
	bulk.DeleteAll(del)
	parallel.ForGrain(len(del), 1, func(i int) { perElem.Delete(del[i]) })
	if !bytes.Equal(layoutBytes(perElem.Snapshot()), layoutBytes(bulk.Snapshot())) {
		t.Fatal("grow-table layouts differ after bulk vs per-element deletes")
	}

	_, err := bulk.TryInsertAll([]uint64{5, Empty})
	if !errors.Is(err, ErrReservedKey) {
		t.Fatalf("GrowTable TryInsertAll with Empty: err = %v, want ErrReservedKey", err)
	}
}

// TestFindAllShortDstPanicsOnCaller checks every FindAll entry point
// rejects a dst shorter than its keys on the calling goroutine, before
// any block runs: the panic is recoverable and dst stays untouched.
// With enough keys for many blocks, a check inside the blocks would
// panic on a pool worker and kill the process.
func TestFindAllShortDstPanicsOnCaller(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(4))
	const n = 1 << 15
	keys := shardedKeys(n, 5)
	dst := make([]uint64, 10)
	recs := recKeys(n, 5)
	recDst := make([]*rec, 10)
	for _, tc := range []struct {
		name string
		find func()
	}{
		{"WordTable", func() { NewWordTable[SetOps](n).FindAll(keys, dst) }},
		{"CompactTable", func() { NewCompactTable[SetOps](n).FindAll(keys, dst) }},
		{"GrowTable", func() { NewGrowTable[SetOps](n).FindAll(keys, dst) }},
		{"ShardedTable", func() { NewShardedTable[SetOps](n, 8).FindAll(keys, dst) }},
		{"PtrTable", func() { NewPtrTable[rec, recOps](n).FindAll(recs, recDst) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := range dst {
				dst[i] = 7
			}
			defer func() {
				if recover() == nil {
					t.Fatal("FindAll with a short dst did not panic")
				}
				for i, v := range dst {
					if v != 7 || recDst[i] != nil {
						t.Fatalf("dst[%d] written before the panic", i)
					}
				}
			}()
			tc.find()
		})
	}
}
