package core

import "testing"

// These tests pin probe termination on a *saturated* table. With no
// Empty cell left, find and the delete victim scan can only terminate
// via the priority order or the whole-array sweep bound; an absent key
// of lower priority than everything in its probe path historically spun
// forever (the bound existed only on the insert path, where it is how
// ErrFull is detected). The epoch server's ErrFull attribution pass
// runs FindAll on exactly such a table, so this is load-bearing for
// graceful saturation, not a corner case.

// fillWordTable saturates the table with distinct large elements,
// returning the stored set. SetOps priority is numeric, so afterwards
// any small key (e.g. 1) is absent AND outranked by every stored
// element: its probe meets no stopping condition on the full table
// other than the sweep bound.
func fillWordTable(t *testing.T, wt *WordTable[SetOps]) []uint64 {
	t.Helper()
	var stored []uint64
	for v := uint64(1_000_000); wt.Count() < wt.Size(); v++ {
		if added, err := wt.TryInsert(v); err == nil && added {
			stored = append(stored, v)
		}
		if v > 1_000_000+uint64(wt.Size())*1000 {
			t.Fatal("could not saturate table")
		}
	}
	return stored
}

// absentLowKey is absent from any table built by fillWordTable and has
// lower priority than everything stored there.
const absentLowKey = uint64(1)

func TestSaturatedFindTerminates(t *testing.T) {
	wt := NewWordTable[SetOps](64)
	stored := fillWordTable(t, wt)
	absent := absentLowKey

	if _, ok := wt.Find(absent); ok {
		t.Fatalf("absent key %#x reported present", absent)
	}
	for _, v := range stored {
		if _, ok := wt.Find(v); !ok {
			t.Fatalf("stored key %#x lost", v)
		}
	}
}

func TestSaturatedDeleteTerminates(t *testing.T) {
	wt := NewWordTable[SetOps](64)
	stored := fillWordTable(t, wt)
	absent := absentLowKey

	if wt.Delete(absent) {
		t.Fatalf("deleting absent key %#x reported success", absent)
	}
	if got := wt.Count(); got != wt.Size() {
		t.Fatalf("Count = %d after no-op deletes, want %d", got, wt.Size())
	}
	// Deleting real elements from the saturated table must work too and
	// leave the canonical layout behind.
	if !wt.Delete(stored[len(stored)/2]) {
		t.Fatal("deleting a stored key from a full table failed")
	}
	if !wt.Delete(stored[0]) {
		t.Fatal("deleting a second stored key from a full table failed")
	}
	if err := wt.CheckInvariant(); err != nil {
		t.Fatalf("invariant after saturated deletes: %v", err)
	}
	if got := wt.Count(); got != wt.Size()-2 {
		t.Fatalf("Count = %d, want %d", got, wt.Size()-2)
	}
}

func TestSaturatedShardedFindAll(t *testing.T) {
	st := NewShardedTable[SetOps](16, 1)
	keys := make([]uint64, 0, 256)
	for v := uint64(1); v <= 256; v++ {
		keys = append(keys, v)
	}
	if _, err := st.TryInsertAll(keys); err == nil {
		t.Fatal("256 inserts into 16 cells did not report saturation")
	}
	// The attribution pattern: FindAll over every attempted key on the
	// now-saturated table must terminate and agree with Count.
	dst := make([]uint64, len(keys))
	found := st.FindAll(keys, dst)
	if found != st.Count() {
		t.Fatalf("FindAll found %d, Count %d", found, st.Count())
	}
	landed := 0
	for i, v := range dst {
		if v != Empty {
			landed++
			if v != keys[i] {
				t.Fatalf("dst[%d] = %#x, want %#x", i, v, keys[i])
			}
		}
	}
	if landed != found {
		t.Fatalf("dst has %d non-empty slots, FindAll reported %d", landed, found)
	}
}

// fillPtrTable saturates an 8-cell pointer table with keys 100-107;
// recOps priority is numeric on the key, so key 1 is absent and
// outranked by every stored record.
func fillPtrTable(t *testing.T) (*PtrTable[rec, recOps], []*rec) {
	t.Helper()
	pt := NewPtrTable[rec, recOps](8)
	var stored []*rec
	for k := uint64(100); k < 108; k++ {
		r := &rec{key: k, val: k}
		if added, err := pt.TryInsert(r); err != nil || !added {
			t.Fatalf("TryInsert(%d) = %v, %v", k, added, err)
		}
		stored = append(stored, r)
	}
	if got := pt.Count(); got != pt.Size() {
		t.Fatalf("Count = %d, want a saturated %d", got, pt.Size())
	}
	return pt, stored
}

func TestSaturatedPtrFindTerminates(t *testing.T) {
	pt, stored := fillPtrTable(t)
	if _, ok := pt.Find(&rec{key: absentLowKey}); ok {
		t.Fatal("absent key reported present")
	}
	for _, r := range stored {
		if got, ok := pt.Find(&rec{key: r.key}); !ok || got != r {
			t.Fatalf("stored key %d lost", r.key)
		}
	}
}

func TestSaturatedPtrDeleteAbsentTerminates(t *testing.T) {
	pt, _ := fillPtrTable(t)
	if pt.Delete(&rec{key: absentLowKey}) {
		t.Fatal("deleting an absent key reported success")
	}
	if got := pt.Count(); got != pt.Size() {
		t.Fatalf("Count = %d after a no-op delete, want %d", got, pt.Size())
	}
}

func TestSaturatedPtrDeleteTerminates(t *testing.T) {
	pt, stored := fillPtrTable(t)
	for _, r := range stored[:2] {
		if !pt.Delete(&rec{key: r.key}) {
			t.Fatalf("deleting stored key %d from a full table failed", r.key)
		}
	}
	if err := pt.CheckInvariant(); err != nil {
		t.Fatalf("invariant after saturated deletes: %v", err)
	}
	if got := pt.Count(); got != pt.Size()-2 {
		t.Fatalf("Count = %d, want %d", got, pt.Size()-2)
	}
}
