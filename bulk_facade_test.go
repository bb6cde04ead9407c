package phasehash

import (
	"errors"
	"strconv"
	"testing"
)

// The facade bulk tests check the public bulk methods agree with
// per-element loops on every container; the layout-level byte identity
// is enforced in internal/core and internal/detres.

func TestSetBulk(t *testing.T) {
	n := 10000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i%(n/2) + 1) // half duplicates
	}
	bulk := NewSet(2 * n)
	perElem := NewSet(2 * n)
	added := bulk.InsertAll(keys)
	want := 0
	for _, k := range keys {
		if perElem.Insert(k) {
			want++
		}
	}
	if added != want {
		t.Fatalf("InsertAll added %d, per-element %d", added, want)
	}
	be, pe := bulk.Elements(), perElem.Elements()
	for i := range pe {
		if be[i] != pe[i] {
			t.Fatalf("Elements[%d]: bulk %d, per-element %d", i, be[i], pe[i])
		}
	}
	if got := bulk.ContainsAll(keys); got != n {
		t.Fatalf("ContainsAll = %d, want %d", got, n)
	}
	if got := bulk.ContainsAll([]uint64{uint64(n + 1), uint64(n + 2)}); got != 0 {
		t.Fatalf("ContainsAll absent = %d", got)
	}
	if got := bulk.DeleteAll(keys[:n/4]); got == 0 {
		t.Fatal("DeleteAll removed nothing")
	}
	if _, err := bulk.TryInsertAll([]uint64{0}); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsertAll(0) err = %v", err)
	}
}

func TestMap32Bulk(t *testing.T) {
	for _, policy := range []Combine{KeepMin, KeepMax, Sum} {
		n := 5000
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: uint32(i%(n/2) + 1), Value: uint32(i + 1)}
		}
		bulk := NewMap32(2*n, policy)
		perElem := NewMap32(2*n, policy)
		added := bulk.InsertAll(entries)
		want := 0
		for _, e := range entries {
			if perElem.Insert(e.Key, e.Value) {
				want++
			}
		}
		if added != want {
			t.Fatalf("policy %d: InsertAll added %d, per-element %d", policy, added, want)
		}
		be, pe := bulk.Entries(), perElem.Entries()
		if len(be) != len(pe) {
			t.Fatalf("policy %d: Entries lengths %d vs %d", policy, len(be), len(pe))
		}
		for i := range pe {
			if be[i] != pe[i] {
				t.Fatalf("policy %d: Entries[%d]: bulk %+v, per-element %+v", policy, i, be[i], pe[i])
			}
		}

		keys := make([]uint32, n/2+1)
		for i := range keys {
			keys[i] = uint32(i + 1) // last one absent for n/2 distinct keys? all present except none
		}
		keys[n/2] = uint32(n) + 7 // absent
		vals := make([]uint32, len(keys))
		found := bulk.FindAll(keys, vals)
		if found != n/2 {
			t.Fatalf("policy %d: FindAll found %d, want %d", policy, found, n/2)
		}
		for i := 0; i < n/2; i++ {
			v, ok := perElem.Find(keys[i])
			if !ok || vals[i] != v {
				t.Fatalf("policy %d: FindAll vals[%d] = %d, Find = %d (%v)", policy, i, vals[i], v, ok)
			}
		}
		if vals[n/2] != 0 {
			t.Fatalf("policy %d: absent key wrote %d", policy, vals[n/2])
		}

		if got := bulk.DeleteAll(keys[:10]); got != 10 {
			t.Fatalf("policy %d: DeleteAll = %d, want 10", policy, got)
		}
		if _, err := bulk.TryInsertAll([]Entry{{Key: 0, Value: 1}}); !errors.Is(err, ErrReservedKey) {
			t.Fatalf("policy %d: TryInsertAll(key 0) err = %v", policy, err)
		}
	}
}

func TestStringMapBulk(t *testing.T) {
	for _, policy := range []Combine{KeepMin, Sum} {
		words := []string{"the", "quick", "brown", "fox", "the", "lazy", "dog", "the"}
		vals := make([]uint64, len(words))
		for i := range vals {
			vals[i] = 1
		}
		bulk := NewStringMap(64, policy)
		perElem := NewStringMap(64, policy)
		added := bulk.InsertAll(words, vals)
		want := 0
		for i, w := range words {
			if perElem.Insert(w, vals[i]) {
				want++
			}
		}
		if added != want {
			t.Fatalf("policy %d: InsertAll added %d, per-element %d", policy, added, want)
		}
		be, pe := bulk.Entries(), perElem.Entries()
		if len(be) != len(pe) {
			t.Fatalf("policy %d: Entries lengths differ", policy)
		}
		for i := range pe {
			if be[i] != pe[i] {
				t.Fatalf("policy %d: Entries[%d]: bulk %+v, per-element %+v", policy, i, be[i], pe[i])
			}
		}

		probe := []string{"the", "fox", "unicorn"}
		got := make([]uint64, len(probe))
		if found := bulk.FindAll(probe, got); found != 2 {
			t.Fatalf("policy %d: FindAll found %d, want 2", policy, found)
		}
		if v, _ := bulk.Find("the"); got[0] != v {
			t.Fatalf("policy %d: FindAll[the] = %d, Find = %d", policy, got[0], v)
		}
		if got[2] != 0 {
			t.Fatalf("policy %d: absent key wrote %d", policy, got[2])
		}
		if n := bulk.DeleteAll([]string{"the", "unicorn"}); n != 1 {
			t.Fatalf("policy %d: DeleteAll = %d, want 1", policy, n)
		}

		if _, err := bulk.TryInsertAll([]string{"a"}, nil); err == nil {
			t.Fatalf("policy %d: mismatched lengths accepted", policy)
		}
	}
}

func TestGrowSetBulk(t *testing.T) {
	n := 20000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i%(n/2) + 1)
	}
	bulk := NewGrowSet(16)
	perElem := NewGrowSet(16)
	added := bulk.InsertAll(keys)
	want := 0
	for _, k := range keys {
		if perElem.Insert(k) {
			want++
		}
	}
	if added != want {
		t.Fatalf("InsertAll added %d, per-element %d", added, want)
	}
	be, pe := bulk.Elements(), perElem.Elements()
	if len(be) != len(pe) {
		t.Fatalf("Elements lengths %d vs %d", len(be), len(pe))
	}
	for i := range pe {
		if be[i] != pe[i] {
			t.Fatalf("Elements[%d]: bulk %d, per-element %d", i, be[i], pe[i])
		}
	}
	if got := bulk.ContainsAll(keys); got != n {
		t.Fatalf("ContainsAll = %d, want %d", got, n)
	}
	if got := bulk.DeleteAll(keys[:100]); got != 100 {
		t.Fatalf("DeleteAll = %d", got)
	}
	if _, err := bulk.TryInsertAll([]uint64{0}); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsertAll(0) err = %v", err)
	}
}

// TestFindAllShortValsPanicsOnCaller checks the map FindAll entry
// points reject a vals shorter than the keys on the calling goroutine,
// before any lookup runs: the panic is recoverable and vals stays
// untouched.
func TestFindAllShortValsPanicsOnCaller(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	const n = 1 << 15
	keys32 := make([]uint32, n)
	strKeys := make([]string, n)
	for i := range keys32 {
		keys32[i] = uint32(i + 1)
		strKeys[i] = strconv.Itoa(i)
	}
	vals32 := make([]uint32, 10)
	vals64 := make([]uint64, 10)
	for _, tc := range []struct {
		name string
		find func()
	}{
		{"Map32", func() { NewMap32(n, KeepMin).FindAll(keys32, vals32) }},
		{"ShardedMap32", func() { NewShardedMap32(n, KeepMin, 8).FindAll(keys32, vals32) }},
		{"StringMap", func() { NewStringMap(n, KeepMin).FindAll(strKeys, vals64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := range vals32 {
				vals32[i], vals64[i] = 7, 7
			}
			defer func() {
				if recover() == nil {
					t.Fatal("FindAll with a short vals did not panic")
				}
				for i := range vals32 {
					if vals32[i] != 7 || vals64[i] != 7 {
						t.Fatalf("vals[%d] written before the panic", i)
					}
				}
			}()
			tc.find()
		})
	}
}
