package phasehash

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"phasehash/internal/core"
)

// The layout matrix runs the same facade contract over every
// constructor of a Set and of a Map32: the constructor picks the table
// layout, and nothing else about the type may depend on it.

type setLayout struct {
	name      string
	new       func(capacity int) *Set
	shards    int  // NumShards
	cellBytes int  // Bytes per cell
	grows     bool // never reports ErrFull
}

var setLayouts = []setLayout{
	{name: "Flat", new: NewSet, shards: 1, cellBytes: 8},
	{name: "Sharded", new: func(c int) *Set { return NewShardedSet(c, 4) }, shards: 4, cellBytes: 8},
	{name: "Compact", new: NewCompactSet, shards: 1, cellBytes: 9},
	{name: "Grow", new: NewGrowSet, shards: 1, cellBytes: 8, grows: true},
}

// layoutKeys returns n distinct non-zero keys scattered over the word.
func layoutKeys(n int, salt uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = (uint64(i)+salt)*0x9e3779b97f4a7c15 | 1
	}
	return keys
}

// withProcs runs fn with GOMAXPROCS and the library's worker count at p.
func withProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	defer SetParallelism(SetParallelism(p))
	fn()
}

func TestSetLayouts(t *testing.T) {
	for _, l := range setLayouts {
		t.Run(l.name, func(t *testing.T) {
			t.Run("ReservedKey", func(t *testing.T) { testSetReservedKey(t, l) })
			t.Run("Full", func(t *testing.T) { testSetFull(t, l) })
			t.Run("BulkMatchesPerElement", func(t *testing.T) { testSetBulkMatchesPerElement(t, l) })
			t.Run("DeterministicElements", func(t *testing.T) { testSetDeterministicElements(t, l) })
			t.Run("Shards", func(t *testing.T) { testSetShards(t, l) })
			t.Run("Checked", func(t *testing.T) { testSetChecked(t, l) })
			t.Run("ClearThenRefill", func(t *testing.T) { testSetClearThenRefill(t, l) })
		})
	}
}

func testSetReservedKey(t *testing.T, l setLayout) {
	s := l.new(1 << 10)
	if _, err := s.TryInsert(0); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsert(0) err = %v, want ErrReservedKey", err)
	}
	n, err := s.TryInsertAll([]uint64{5, 0, 6})
	if !errors.Is(err, ErrReservedKey) || n != 2 {
		t.Fatalf("TryInsertAll with key 0 = %d, %v; want 2, ErrReservedKey", n, err)
	}
	if s.Count() != 2 || s.Contains(0) {
		t.Fatalf("after TryInsertAll: Count = %d, Contains(0) = %v", s.Count(), s.Contains(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(0) did not panic")
		}
	}()
	s.Insert(0)
}

// testSetFull inserts twice the backing array's cells: the fixed
// layouts report ErrFull and panic on Insert; grow takes every key.
func testSetFull(t *testing.T, l setLayout) {
	s := l.new(1 << 8)
	keys := layoutKeys(2*s.Capacity(), 0)
	n, err := s.TryInsertAll(keys)
	if l.grows {
		if err != nil || n != len(keys) || s.Count() != len(keys) {
			t.Fatalf("TryInsertAll = %d, %v, Count %d; want %d, nil", n, err, s.Count(), len(keys))
		}
		if _, err := s.TryInsert(keys[0] + 2); err != nil {
			t.Fatalf("TryInsert on a grown set: %v", err)
		}
		return
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsertAll of %d keys into %d cells: err = %v, want ErrFull", len(keys), s.Capacity(), err)
	}
	if n != s.Count() || n != s.Capacity() {
		t.Fatalf("TryInsertAll added %d, Count %d, Capacity %d; want all equal", n, s.Count(), s.Capacity())
	}
	// A rejected insert into a full table can still displace a stored
	// key (ROADMAP, "Saturated inserts lose a key"), so the panicking
	// Insert below uses a key the rejected TryInsert never carried.
	fresh := keys[len(keys)-1] + 2
	if _, err := s.TryInsert(fresh); !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsert into a full set: err = %v, want ErrFull", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert into a full set did not panic")
		}
	}()
	s.Insert(fresh + 2)
}

func testSetBulkMatchesPerElement(t *testing.T, l setLayout) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i%400+1) * 0x9e3779b97f4a7c15 // 400 distinct
	}
	probes := append(slices.Clone(keys[:300]), layoutKeys(100, 1<<40)...)
	bulk, each := l.new(1<<12), l.new(1<<12)

	added, want := bulk.InsertAll(keys), 0
	for i := len(keys) - 1; i >= 0; i-- {
		if each.Insert(keys[i]) {
			want++
		}
	}
	if added != 400 || want != 400 {
		t.Fatalf("InsertAll added %d, per-element %d; want 400", added, want)
	}
	if !slices.Equal(bulk.Elements(), each.Elements()) {
		t.Fatal("Elements differ between bulk and per-element inserts")
	}
	hits := 0
	for _, k := range probes {
		if each.Contains(k) {
			hits++
		}
	}
	if got := bulk.ContainsAll(probes); got != hits || hits != 300 {
		t.Fatalf("ContainsAll = %d, per-element %d; want 300", got, hits)
	}
	removed, want := bulk.DeleteAll(keys[:500]), 0
	for _, k := range keys[:500] {
		if each.Delete(k) {
			want++
		}
	}
	if removed != want || removed != 400-bulk.Count() {
		t.Fatalf("DeleteAll removed %d, per-element %d, left %d", removed, want, bulk.Count())
	}
	if !slices.Equal(bulk.Elements(), each.Elements()) {
		t.Fatal("Elements differ between bulk and per-element deletes")
	}
}

// testSetDeterministicElements builds the same key set at GOMAXPROCS
// 1, 2 and 4, from four goroutines inserting disjoint quarters one key
// at a time, and from one bulk call: Elements must not change.
func testSetDeterministicElements(t *testing.T, l setLayout) {
	keys := layoutKeys(5000, 7)
	var want []uint64
	for _, p := range []int{1, 2, 4} {
		withProcs(p, func() {
			for run := 0; run < 2; run++ {
				s := l.new(1 << 14)
				if run == 0 {
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(part []uint64) {
							defer wg.Done()
							for _, k := range part {
								s.Insert(k)
							}
						}(keys[w*len(keys)/4 : (w+1)*len(keys)/4])
					}
					wg.Wait()
				} else {
					s.InsertAll(keys)
				}
				got := s.Elements()
				if want == nil {
					want = got
				}
				if len(got) != len(keys) || !slices.Equal(got, want) {
					t.Fatalf("GOMAXPROCS %d, run %d: Elements differ (%d keys)", p, run, len(got))
				}
			}
		})
	}
}

func testSetShards(t *testing.T, l setLayout) {
	s := l.new(1 << 12)
	s.InsertAll(layoutKeys(1000, 3))
	if s.NumShards() != l.shards {
		t.Fatalf("NumShards = %d, want %d", s.NumShards(), l.shards)
	}
	st := s.ShardStats()
	sum := 0
	for _, c := range st.Counts {
		sum += c
	}
	if st.Shards != l.shards || len(st.Counts) != l.shards || st.Total != 1000 || sum != 1000 {
		t.Fatalf("ShardStats = %+v, want %d shards holding 1000 keys", st, l.shards)
	}
	if st.Min > st.Max || st.Imbalance() < 1 {
		t.Fatalf("ShardStats spread Min %d, Max %d, Imbalance %v", st.Min, st.Max, st.Imbalance())
	}
	if s.Bytes() != l.cellBytes*s.Capacity() {
		t.Fatalf("Bytes = %d, want %d per cell over %d cells", s.Bytes(), l.cellBytes, s.Capacity())
	}
}

// testSetChecked holds each phase on the checked twin's guard and
// checks that every operation of another phase, bulk calls included,
// panics naming the held phase.
func testSetChecked(t *testing.T, l setLayout) {
	keys := []uint64{1, 2, 3}
	ops := map[core.Phase][]func(c *CheckedSet){
		core.PhaseInsert: {
			func(c *CheckedSet) { c.Insert(9) },
			func(c *CheckedSet) { c.InsertAll(keys) },
			func(c *CheckedSet) { _, _ = c.TryInsertAll(keys) },
		},
		core.PhaseDelete: {
			func(c *CheckedSet) { c.Delete(1) },
			func(c *CheckedSet) { c.DeleteAll(keys) },
		},
		core.PhaseRead: {
			func(c *CheckedSet) { c.ContainsAll(keys) },
			func(c *CheckedSet) { c.Elements() },
		},
	}
	for held := range ops {
		for phase, calls := range ops {
			if phase == held {
				continue
			}
			for _, call := range calls {
				c := Checked(l.new(64))
				c.InsertAll(keys)
				func() {
					if err := c.guard.Enter(held); err != nil {
						t.Fatal(err)
					}
					defer c.guard.Exit(held)
					defer expectPhasePanic(t, held.String())
					call(c)
				}()
			}
		}
	}
}

// testSetClearThenRefill checks that a cleared set refills into the
// layout a fresh set builds: for grow, a fresh set at the grown size.
func testSetClearThenRefill(t *testing.T, l setLayout) {
	const capacity = 1 << 8
	s := l.new(capacity)
	s.InsertAll(layoutKeys(200, 11))
	size := s.Capacity()
	s.Clear()
	if s.Count() != 0 || len(s.Elements()) != 0 || s.Capacity() != size {
		t.Fatalf("after Clear: Count %d, Capacity %d (was %d)", s.Count(), s.Capacity(), size)
	}
	fresh := l.new(capacity)
	if l.grows {
		fresh = NewGrowSet(size)
	}
	refill := layoutKeys(150, 12)
	if a, b := s.InsertAll(refill), fresh.InsertAll(refill); a != b || a != len(refill) {
		t.Fatalf("refill added %d, fresh %d; want %d", a, b, len(refill))
	}
	if s.Capacity() != fresh.Capacity() || !slices.Equal(s.Elements(), fresh.Elements()) {
		t.Fatalf("refilled set (%d cells) differs from a fresh one (%d cells)", s.Capacity(), fresh.Capacity())
	}
}

type map32Layout struct {
	name   string
	new    func(capacity int, policy Combine) *Map32
	shards int
}

var map32Layouts = []map32Layout{
	{name: "Flat", new: NewMap32, shards: 1},
	{name: "Sharded", new: func(c int, p Combine) *Map32 { return NewShardedMap32(c, p, 4) }, shards: 4},
}

func TestMap32Layouts(t *testing.T) {
	for _, l := range map32Layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Run("Policies", func(t *testing.T) { testMap32Policies(t, l) })
			t.Run("ReservedKey", func(t *testing.T) { testMap32ReservedKey(t, l) })
			t.Run("Full", func(t *testing.T) { testMap32Full(t, l) })
			t.Run("BulkMatchesPerElement", func(t *testing.T) { testMap32BulkMatchesPerElement(t, l) })
			t.Run("DeterministicEntries", func(t *testing.T) { testMap32DeterministicEntries(t, l) })
			t.Run("Shards", func(t *testing.T) { testMap32Shards(t, l) })
			t.Run("Checked", func(t *testing.T) { testMap32Checked(t, l) })
		})
	}
}

func testMap32Policies(t *testing.T, l map32Layout) {
	for policy, want := range map[Combine]uint32{KeepMin: 10, KeepMax: 30, Sum: 40} {
		m := l.new(1<<10, policy)
		if added := m.InsertAll([]Entry{{Key: 1, Value: 10}, {Key: 1, Value: 30}, {Key: 2, Value: 5}}); added != 2 {
			t.Fatalf("policy %d: InsertAll added %d keys, want 2", policy, added)
		}
		if v, ok := m.Find(1); !ok || v != want {
			t.Fatalf("policy %d: Find(1) = %d, %v; want %d", policy, v, ok, want)
		}
		vals := make([]uint32, 2)
		if n := m.FindAll([]uint32{1, 3}, vals); n != 1 || vals[0] != want || vals[1] != 0 {
			t.Fatalf("policy %d: FindAll = %d, vals %v", policy, n, vals)
		}
		if !m.Delete(2) || m.Delete(2) || m.Count() != 1 || len(m.Entries()) != 1 {
			t.Fatalf("policy %d: Delete/Count/Entries wrong", policy)
		}
	}
}

func testMap32ReservedKey(t *testing.T, l map32Layout) {
	m := l.new(1<<10, Sum)
	if _, err := m.TryInsert(0, 1); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsert(0) err = %v, want ErrReservedKey", err)
	}
	n, err := m.TryInsertAll([]Entry{{Key: 0, Value: 1}, {Key: 9, Value: 9}})
	if !errors.Is(err, ErrReservedKey) || n != 1 || m.Count() != 1 {
		t.Fatalf("TryInsertAll with key 0 = %d, %v, Count %d; want 1, ErrReservedKey, 1", n, err, m.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(0) did not panic")
		}
	}()
	m.Insert(0, 1)
}

func testMap32Full(t *testing.T, l map32Layout) {
	m := l.new(1<<8, KeepMin)
	entries := make([]Entry, 1<<10)
	for i := range entries {
		entries[i] = Entry{Key: uint32(i + 1), Value: uint32(i)}
	}
	n, err := m.TryInsertAll(entries)
	if !errors.Is(err, ErrFull) || n != 1<<8 || m.Count() != 1<<8 {
		t.Fatalf("TryInsertAll of %d keys into 256 cells = %d, %v, Count %d; want 256, ErrFull", len(entries), n, err, m.Count())
	}
	if _, err := m.TryInsert(1<<20, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsert into a full map: err = %v, want ErrFull", err)
	}
}

func testMap32BulkMatchesPerElement(t *testing.T, l map32Layout) {
	entries := make([]Entry, 3000)
	for i := range entries {
		entries[i] = Entry{Key: uint32(i%1000 + 1), Value: uint32(i * 7)}
	}
	keys := make([]uint32, 1200)
	for i := range keys {
		keys[i] = uint32(i + 1)
	}
	for _, policy := range []Combine{KeepMin, KeepMax, Sum} {
		bulk, each := l.new(1<<12, policy), l.new(1<<12, policy)
		added, want := bulk.InsertAll(entries), 0
		for i := len(entries) - 1; i >= 0; i-- {
			if each.Insert(entries[i].Key, entries[i].Value) {
				want++
			}
		}
		if added != 1000 || want != 1000 || !slices.Equal(bulk.Entries(), each.Entries()) {
			t.Fatalf("policy %d: InsertAll added %d, per-element %d, or Entries differ", policy, added, want)
		}
		vals := make([]uint32, len(keys))
		hits := 0
		for i, k := range keys {
			if v, ok := each.Find(k); ok {
				hits++
				vals[i] = v
			}
		}
		got := make([]uint32, len(keys))
		if n := bulk.FindAll(keys, got); n != hits || !slices.Equal(got, vals) {
			t.Fatalf("policy %d: FindAll = %d (per-element %d) or values differ", policy, n, hits)
		}
		removed, want := bulk.DeleteAll(keys[:500]), 0
		for _, k := range keys[:500] {
			if each.Delete(k) {
				want++
			}
		}
		if removed != 500 || want != 500 || !slices.Equal(bulk.Entries(), each.Entries()) {
			t.Fatalf("policy %d: DeleteAll removed %d, per-element %d, or Entries differ", policy, removed, want)
		}
	}
}

func testMap32DeterministicEntries(t *testing.T, l map32Layout) {
	entries := make([]Entry, 4000)
	for i := range entries {
		entries[i] = Entry{Key: uint32(layoutKeys(1, uint64(i))[0]>>32) | 1, Value: uint32(i)}
	}
	var want []Entry
	for _, p := range []int{1, 2, 4} {
		withProcs(p, func() {
			for run := 0; run < 2; run++ {
				m := l.new(1<<13, Sum)
				if run == 0 {
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(part []Entry) {
							defer wg.Done()
							for _, e := range part {
								m.Insert(e.Key, e.Value)
							}
						}(entries[w*len(entries)/4 : (w+1)*len(entries)/4])
					}
					wg.Wait()
				} else {
					m.InsertAll(entries)
				}
				got := m.Entries()
				if want == nil {
					want = got
				}
				if !slices.Equal(got, want) {
					t.Fatalf("GOMAXPROCS %d, run %d: Entries differ", p, run)
				}
			}
		})
	}
}

func testMap32Shards(t *testing.T, l map32Layout) {
	m := l.new(1<<12, KeepMax)
	for k := uint32(1); k <= 1000; k++ {
		m.Insert(k, k)
	}
	st := m.ShardStats()
	if m.NumShards() != l.shards || st.Shards != l.shards || len(st.Counts) != l.shards || st.Total != 1000 {
		t.Fatalf("NumShards = %d, ShardStats = %+v; want %d shards holding 1000 keys", m.NumShards(), st, l.shards)
	}
}

func testMap32Checked(t *testing.T, l map32Layout) {
	entries := []Entry{{Key: 1, Value: 1}}
	keys := []uint32{1}
	ops := map[core.Phase][]func(c *CheckedMap32){
		core.PhaseInsert: {
			func(c *CheckedMap32) { c.Insert(9, 9) },
			func(c *CheckedMap32) { c.InsertAll(entries) },
		},
		core.PhaseDelete: {
			func(c *CheckedMap32) { c.DeleteAll(keys) },
		},
		core.PhaseRead: {
			func(c *CheckedMap32) { c.FindAll(keys, nil) },
			func(c *CheckedMap32) { c.Entries() },
		},
	}
	for held := range ops {
		for phase, calls := range ops {
			if phase == held {
				continue
			}
			for _, call := range calls {
				c := NewCheckedMap32(l.new(64, Sum))
				func() {
					if err := c.guard.Enter(held); err != nil {
						t.Fatal(err)
					}
					defer c.guard.Exit(held)
					defer expectPhasePanic(t, held.String())
					call(c)
				}()
			}
		}
	}
}

// TestCompactSetSizing pins the 0.9-target sizing contract: the
// requested capacity always fits, and a capacity just under a
// power-of-two boundary divided by 0.9 does not double the array the
// way NewSet's direct rounding would.
func TestCompactSetSizing(t *testing.T) {
	// 1<<12 keys at 0.9 load need 4551 cells -> 8192; the flat Set
	// would also pick 4096 for the keys alone but run at load 1.0.
	s := NewCompactSet(1 << 12)
	if s.Capacity() != 1<<13 {
		t.Fatalf("Capacity = %d, want %d", s.Capacity(), 1<<13)
	}
	if want := (1 << 13) * 9; s.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), want)
	}
	// 7000 keys need 7779 cells: fits in 8192 at load 0.85 — under the
	// 0.9 ceiling with no doubling.
	if got := NewCompactSet(7000).Capacity(); got != 1<<13 {
		t.Fatalf("Capacity(7000) = %d, want %d", got, 1<<13)
	}
	for _, capacity := range []int{0, 1, 10, 100, 4096, 7000, 100000} {
		s := NewCompactSet(capacity)
		if float64(capacity) > 0.9*float64(s.Capacity()) {
			t.Fatalf("capacity %d exceeds 0.9 load on %d cells", capacity, s.Capacity())
		}
	}
}

// TestDefaultShardsIgnoreHistory checks that the default-sharded
// constructors keep one layout for one key set at each capacity,
// whatever the parallelism and whatever an unrelated skewed bulk call
// did first.
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
