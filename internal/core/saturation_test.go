package core

import (
	"errors"
	"slices"
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

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

// saturable is what TestSaturatedInsertKeepsSet needs of a fixed layout.
type saturable interface {
	TryInsert(v uint64) (bool, error)
	TryInsertAll(elems []uint64) (int, error)
	Insert(v uint64) bool
	Contains(v uint64) bool
	Count() int
	Size() int
	Snapshot() []uint64
}

// ptrSaturable adapts PtrTable to saturable: each word is a record's
// key, and Snapshot reads the key held in every cell (0 for an empty
// one), so it compares layouts position by position.
type ptrSaturable struct{ *PtrTable[rec, recOps] }

func (p ptrSaturable) TryInsert(k uint64) (bool, error) { return p.PtrTable.TryInsert(&rec{key: k}) }
func (p ptrSaturable) Insert(k uint64) bool             { return p.PtrTable.Insert(&rec{key: k}) }

func (p ptrSaturable) TryInsertAll(keys []uint64) (int, error) {
	recs := make([]*rec, len(keys))
	for i, k := range keys {
		recs[i] = &rec{key: k}
	}
	return p.PtrTable.TryInsertAll(recs)
}

func (p ptrSaturable) Contains(k uint64) bool {
	_, ok := p.Find(&rec{key: k})
	return ok
}

func (p ptrSaturable) Snapshot() []uint64 {
	out := make([]uint64, p.Size())
	for i := range p.cells {
		if r := p.cells[i].Load(); r != nil {
			out[i] = r.key
		}
	}
	return out
}

// TestSaturatedInsertKeepsSet fills each fixed layout, then
// attempts absent inserts one at a time: per-element TryInserts, a
// bulk TryInsertAll of one block, and a panicking Insert. Every attempt
// must fail with ErrFull and leave the stored set, and its layout,
// exactly as it was. Sizes 8 to 256 and random keys make the rejected
// insert displace long chains before it meets the sweep bound.
func TestSaturatedInsertKeepsSet(t *testing.T) {
	layouts := map[string]func(m int) saturable{
		"Word":    func(m int) saturable { return NewWordTable[SetOps](m) },
		"Compact": func(m int) saturable { return NewCompactTable[SetOps](m) },
		"Sharded": func(m int) saturable { return NewShardedTable[SetOps](m, 4) },
		"Ptr":     func(m int) saturable { return ptrSaturable{NewPtrTable[rec, recOps](m)} },
	}
	for name, newTable := range layouts {
		for _, m := range []int{8, 64, 256} {
			tab := newTable(m)
			var stored []uint64
			for i := 0; tab.Count() < tab.Size(); i++ {
				if i > 100*m {
					t.Fatalf("%s/%d: could not saturate", name, m)
				}
				k := hashx.At(uint64(m), i) | 1
				if added, err := tab.TryInsert(k); err == nil && added {
					stored = append(stored, k)
				}
			}
			before := tab.Snapshot()
			check := func(what string) {
				t.Helper()
				if !slices.Equal(tab.Snapshot(), before) {
					t.Fatalf("%s/%d: %s changed the layout", name, m, what)
				}
				for _, k := range stored {
					if !tab.Contains(k) {
						t.Fatalf("%s/%d: %s lost stored key %#x", name, m, what, k)
					}
				}
			}
			absent := make([]uint64, 20)
			for i := range absent {
				absent[i] = hashx.At(uint64(m)+1000, i) | 1
			}
			absent[0], absent[1] = 1, ^uint64(0) // both ends of the priority order
			for _, k := range absent {
				if _, err := tab.TryInsert(k); !errors.Is(err, ErrFull) {
					t.Fatalf("%s/%d: TryInsert(%#x) into a full table: err = %v", name, m, k, err)
				}
				check("a rejected TryInsert")
				if tab.Contains(k) {
					t.Fatalf("%s/%d: rejected key %#x reads present", name, m, k)
				}
			}
			if n, err := tab.TryInsertAll(absent); n != 0 || !errors.Is(err, ErrFull) {
				t.Fatalf("%s/%d: TryInsertAll of absent keys = %d, %v", name, m, n, err)
			}
			check("a rejected TryInsertAll")
			func() {
				defer func() { _ = recover() }()
				tab.Insert(absent[2])
				t.Fatalf("%s/%d: Insert into a full table did not panic", name, m)
			}()
			check("a panicking Insert")
		}
	}
}

// TestSaturatedSerialInsertKeepsSet is TestSaturatedInsertKeepsSet for
// CompactTable's sequential reference insert, ctrl bytes included.
func TestSaturatedSerialInsertKeepsSet(t *testing.T) {
	tab := NewCompactTable[SetOps](64)
	for i := 0; tab.Count() < tab.Size(); i++ {
		tab.insertSerial(hashx.At(7, i) | 1)
	}
	cells, ctrl := tab.Snapshot(), tab.CtrlSnapshot()
	for i := 0; i < 20; i++ {
		if _, full := tab.insertSerial(hashx.At(8, i) | 1); !full {
			t.Fatal("insertSerial into a full table did not report full")
		}
		if !slices.Equal(tab.Snapshot(), cells) || !slices.Equal(tab.CtrlSnapshot(), ctrl) {
			t.Fatalf("rejected insertSerial %d changed the layout", i)
		}
	}
}

// TestSaturatedPtrInsertKeepsSet is TestSaturatedInsertKeepsSet for
// PtrTable: absent records both outranking and outranked by the stored
// ones are rejected without changing what is stored, or where.
func TestSaturatedPtrInsertKeepsSet(t *testing.T) {
	pt, stored := fillPtrTable(t)
	before := pt.Elements()
	for _, k := range []uint64{absentLowKey, 50, 1045, 1 << 40, ^uint64(0)} {
		if _, err := pt.TryInsert(&rec{key: k}); !errors.Is(err, ErrFull) {
			t.Fatalf("TryInsert(%d) into a full table: err = %v", k, err)
		}
		if !slices.Equal(pt.Elements(), before) {
			t.Fatalf("rejected TryInsert(%d) changed the layout", k)
		}
		if _, ok := pt.Find(&rec{key: k}); ok {
			t.Fatalf("rejected key %d reads present", k)
		}
	}
	for _, r := range stored {
		if got, ok := pt.Find(&rec{key: r.key}); !ok || got != r {
			t.Fatalf("stored key %d lost", r.key)
		}
	}
}

// TestSaturatedBulkInsertUnwinds overfills each fixed layout, already
// holding a prior set, with one bulk call of many blocks, which run
// concurrently when there are workers to run them. The rejected inserts
// are unwound once every block is done, so the table holds every prior
// key, the count grows by the call's added total, and the layout is the
// canonical one of the prior keys plus the keys that landed. Without
// the unwind, a rejected insert's chain pushes a prior key off the
// table.
func TestSaturatedBulkInsertUnwinds(t *testing.T) {
	layouts := map[string]func(m int) saturable{
		"Word":    func(m int) saturable { return NewWordTable[SetOps](m) },
		"Compact": func(m int) saturable { return NewCompactTable[SetOps](m) },
		"Sharded": func(m int) saturable { return NewShardedTable[SetOps](m, 4) },
		"Ptr":     func(m int) saturable { return ptrSaturable{NewPtrTable[rec, recOps](m)} },
	}
	prior := make([]uint64, 300)
	for i := range prior {
		prior[i] = hashx.At(98, i) | 1
	}
	keys := make([]uint64, 8*parallel.MinGrain)
	for i := range keys {
		keys[i] = hashx.At(99, i) | 1
	}
	for name, newTable := range layouts {
		tab := newTable(1024)
		for _, k := range prior {
			tab.Insert(k)
		}
		n, err := tab.TryInsertAll(keys)
		if !errors.Is(err, ErrFull) || n != tab.Count()-len(prior) || tab.Count() != tab.Size() {
			t.Fatalf("%s: TryInsertAll = %d, %v; Count %d, Size %d", name, n, err, tab.Count(), tab.Size())
		}
		for _, k := range prior {
			if !tab.Contains(k) {
				t.Fatalf("%s: prior key %#x lost", name, k)
			}
		}
		landed := slices.Clone(prior)
		for _, k := range keys {
			if tab.Contains(k) {
				landed = append(landed, k)
			}
		}
		if len(landed) != len(prior)+n {
			t.Fatalf("%s: %d keys read present, %d prior and %d added", name, len(landed), len(prior), n)
		}
		ref := newTable(1024)
		for _, k := range landed {
			ref.Insert(k)
		}
		if !slices.Equal(tab.Snapshot(), ref.Snapshot()) {
			t.Fatalf("%s: layout differs from a sequential build of the keys that landed", name)
		}
	}
}
