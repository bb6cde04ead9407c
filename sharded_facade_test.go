package phasehash

import (
	"errors"
	"slices"
	"sort"
	"testing"
)

func TestShardedSetFacade(t *testing.T) {
	s := NewShardedSet(1<<12, 8)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", s.NumShards())
	}
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i%400 + 1) // duplicates: 400 distinct
	}
	if added := s.InsertAll(keys); added != 400 {
		t.Fatalf("InsertAll added %d, want 400", added)
	}
	if got := s.ContainsAll(keys); got != len(keys) {
		t.Fatalf("ContainsAll = %d, want %d", got, len(keys))
	}
	if !s.Contains(17) || s.Contains(401) {
		t.Fatal("per-element Contains wrong")
	}
	if s.Count() != 400 {
		t.Fatalf("Count = %d, want 400", s.Count())
	}
	got := s.Elements()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := 0; i < 400; i++ {
		if got[i] != uint64(i+1) {
			t.Fatalf("Elements missing %d", i+1)
		}
	}
	if removed := s.DeleteAll(keys[:500]); removed == 0 {
		t.Fatal("DeleteAll removed nothing")
	}
	if _, err := s.TryInsert(0); !errors.Is(err, ErrReservedKey) {
		t.Fatal("TryInsert(0) did not report ErrReservedKey")
	}
	if _, err := s.TryInsertAll([]uint64{5, 0}); !errors.Is(err, ErrReservedKey) {
		t.Fatal("TryInsertAll with key 0 did not report ErrReservedKey")
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear left elements")
	}
}

// TestShardedSetDeterministicElements pins the public determinism
// contract: same key set, capacity and shard count => same Elements
// order, regardless of insertion path and batch order.
func TestShardedSetDeterministicElements(t *testing.T) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	a := NewShardedSet(1<<14, 16)
	a.InsertAll(keys)
	b := NewShardedSet(1<<14, 16)
	for i := len(keys) - 1; i >= 0; i-- {
		b.Insert(keys[i])
	}
	ea, eb := a.Elements(), b.Elements()
	if len(ea) != len(eb) {
		t.Fatalf("Elements length %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("Elements[%d] = %#x vs %#x", i, ea[i], eb[i])
		}
	}
}

func TestShardedMap32Facade(t *testing.T) {
	for _, policy := range []Combine{KeepMin, KeepMax, Sum} {
		m := NewShardedMap32(1<<10, policy, 4)
		entries := []Entry{
			{Key: 1, Value: 10}, {Key: 1, Value: 30},
			{Key: 2, Value: 5},
		}
		if added := m.InsertAll(entries); added != 2 {
			t.Fatalf("policy %d: InsertAll added %d keys, want 2", policy, added)
		}
		v, ok := m.Find(1)
		if !ok {
			t.Fatalf("policy %d: Find(1) missing", policy)
		}
		want := map[Combine]uint32{KeepMin: 10, KeepMax: 30, Sum: 40}[policy]
		if v != want {
			t.Fatalf("policy %d: Find(1) = %d, want %d", policy, v, want)
		}
		vals := make([]uint32, 2)
		if n := m.FindAll([]uint32{1, 3}, vals); n != 1 {
			t.Fatalf("policy %d: FindAll = %d, want 1", policy, n)
		}
		if vals[0] != want || vals[1] != 0 {
			t.Fatalf("policy %d: FindAll vals = %v", policy, vals)
		}
		ents := m.Entries()
		if len(ents) != 2 {
			t.Fatalf("policy %d: Entries = %v", policy, ents)
		}
		if m.DeleteAll([]uint32{1}) != 1 || m.Count() != 1 {
			t.Fatalf("policy %d: DeleteAll/Count wrong", policy)
		}
		if !m.Insert(7, 7) || m.NumShards() != 4 {
			t.Fatalf("policy %d: Insert/NumShards wrong", policy)
		}
		if _, err := m.TryInsert(0, 1); !errors.Is(err, ErrReservedKey) {
			t.Fatalf("policy %d: TryInsert(0) did not report ErrReservedKey", policy)
		}
		if _, err := m.TryInsertAll([]Entry{{Key: 0, Value: 1}, {Key: 9, Value: 9}}); !errors.Is(err, ErrReservedKey) {
			t.Fatalf("policy %d: TryInsertAll with key 0 did not report ErrReservedKey", policy)
		}
		if !m.Delete(9) {
			t.Fatalf("policy %d: Delete(9) failed", policy)
		}
	}
}

// TestDefaultShardsIgnoreHistory checks that the default-sharded
// facades keep one layout for one key set at each capacity, whatever
// the parallelism and whatever an unrelated skewed bulk call did first.
func TestDefaultShardsIgnoreHistory(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	keys := make([]uint64, 1000)
	entries := make([]Entry, len(keys))
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15>>32 | 1
		entries[i] = Entry{Key: uint32(keys[i]), Value: uint32(i)}
	}
	skew := make([]uint64, 1<<16)
	for i := range skew {
		skew[i] = 42
	}
	for _, size := range []int{1 << 12, 1 << 15, 1 << 20} {
		var wantSet []uint64
		var wantMap []Entry
		shards := 0
		for _, workers := range []int{1, 2, 4} {
			SetParallelism(workers)
			for _, skewed := range []bool{false, true} {
				if skewed {
					NewShardedSet(1<<20, 8).InsertAll(skew)
				}
				s := NewShardedSet(size, 0)
				m := NewShardedMap32(size, Sum, 0)
				s.InsertAll(keys)
				m.InsertAll(entries)
				if shards == 0 {
					shards, wantSet, wantMap = s.NumShards(), s.Elements(), m.Entries()
				}
				if s.NumShards() != shards || m.NumShards() != shards {
					t.Fatalf("size %d, %d workers, skewed=%v: shards %d/%d, want %d",
						size, workers, skewed, s.NumShards(), m.NumShards(), shards)
				}
				if !slices.Equal(s.Elements(), wantSet) || !slices.Equal(m.Entries(), wantMap) {
					t.Fatalf("size %d, %d workers, skewed=%v: Elements/Entries order differs", size, workers, skewed)
				}
			}
		}
	}
}
