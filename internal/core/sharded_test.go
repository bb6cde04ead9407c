package core

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
	"phasehash/internal/tune"
)

func shardedKeys(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashx.At(seed, i)%uint64(n) + 1
	}
	return keys
}

func TestShardedBasicOps(t *testing.T) {
	tab := NewShardedTable[SetOps](1024, 8)
	if tab.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", tab.NumShards())
	}
	if tab.Size() != 1024 {
		t.Fatalf("Size = %d, want 1024", tab.Size())
	}
	keys := []uint64{3, 17, 99, 12345, 7}
	for _, k := range keys {
		if !tab.Insert(k) {
			t.Errorf("Insert(%d): want new-element", k)
		}
	}
	if tab.Insert(17) {
		t.Error("duplicate Insert(17) reported growth")
	}
	if got := tab.Count(); got != len(keys) {
		t.Errorf("Count = %d, want %d", got, len(keys))
	}
	for _, k := range keys {
		if e, ok := tab.Find(k); !ok || e != k {
			t.Errorf("Find(%d) = (%d,%v)", k, e, ok)
		}
	}
	if !tab.Delete(99) || tab.Delete(99) {
		t.Error("Delete(99) sequence wrong")
	}
	got := tab.Elements()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []uint64{3, 7, 17, 12345}
	if len(got) != len(want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBulkMatchesPerElement is the core cross-path check: the
// bulk kernels must leave exactly the layout the per-element atomic
// path leaves for the same operation set (detres replays this across
// its schedule grid; this is the fast in-package version).
func TestShardedBulkMatchesPerElement(t *testing.T) {
	const n = 20000
	keys := shardedKeys(n, 11)
	del := make([]uint64, 0, n/3+1)
	for i := 0; i < n; i += 3 {
		del = append(del, keys[i])
	}
	perElem := NewShardedTable[SetOps](4*n, 16)
	bulk := NewShardedTable[SetOps](4*n, 16)

	addedP := 0
	for _, k := range keys {
		if perElem.Insert(k) {
			addedP++
		}
	}
	addedB := bulk.InsertAll(keys)
	if addedP != addedB {
		t.Fatalf("InsertAll added %d, per-element %d", addedB, addedP)
	}
	foundB := bulk.ContainsAll(keys)
	if foundB != n {
		t.Fatalf("ContainsAll = %d, want %d", foundB, n)
	}
	dst := make([]uint64, len(keys))
	if got := bulk.FindAll(keys, dst); got != n {
		t.Fatalf("FindAll = %d, want %d", got, n)
	}
	for i, k := range keys {
		if dst[i] != k {
			t.Fatalf("FindAll dst[%d] = %#x, want %#x", i, dst[i], k)
		}
	}
	inPlace := slices.Clone(keys)
	if got := bulk.FindAll(inPlace, inPlace); got != n || !slices.Equal(inPlace, dst) {
		t.Fatalf("in-place FindAll = %d, want %d and the same results as into dst", got, n)
	}
	delP := 0
	for _, k := range del {
		if perElem.Delete(k) {
			delP++
		}
	}
	delB := bulk.DeleteAll(del)
	if delP != delB {
		t.Fatalf("DeleteAll removed %d, per-element %d", delB, delP)
	}
	snapP, snapB := perElem.Snapshot(), bulk.Snapshot()
	for i := range snapP {
		if snapP[i] != snapB[i] {
			t.Fatalf("quiescent cell %d: bulk %#x, per-element %#x", i, snapB[i], snapP[i])
		}
	}
	elP, elB := perElem.Elements(), bulk.Elements()
	if len(elP) != len(elB) {
		t.Fatalf("Elements length %d vs %d", len(elB), len(elP))
	}
	for i := range elP {
		if elP[i] != elB[i] {
			t.Fatalf("Elements[%d] = %#x vs %#x", i, elB[i], elP[i])
		}
	}
	if err := bulk.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBulkDeterministicAcrossWorkers asserts the bulk kernels'
// quiescent layout is identical at every worker count.
func TestShardedBulkDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	const n = 30000
	keys := shardedKeys(n, 5)
	var ref []uint64
	for _, workers := range []int{1, 2, 4, 8} {
		parallel.SetNumWorkers(workers)
		tab := NewShardedTable[SetOps](4*n, 16)
		tab.InsertAll(keys)
		tab.DeleteAll(keys[:n/2])
		snap := tab.Snapshot()
		if ref == nil {
			ref = snap
			continue
		}
		for i := range snap {
			if snap[i] != ref[i] {
				t.Fatalf("workers=%d: cell %d = %#x, want %#x", workers, i, snap[i], ref[i])
			}
		}
	}
}

// TestShardedPairMerge checks duplicate-key resolution flows through
// the owner-computes path (PairMinOps: minimum value wins, regardless
// of arrival order within the partitioned run).
func TestShardedPairMerge(t *testing.T) {
	tab := NewShardedTable[PairMinOps](1024, 4)
	elems := []uint64{
		Pair(7, 30), Pair(7, 10), Pair(7, 20),
		Pair(9, 5), Pair(9, 50),
	}
	if added := tab.InsertAll(elems); added != 2 {
		t.Fatalf("InsertAll added %d keys, want 2", added)
	}
	if e, ok := tab.Find(Pair(7, 0)); !ok || PairValue(e) != 10 {
		t.Fatalf("Find(7) = (%#x,%v), want value 10", e, ok)
	}
	if e, ok := tab.Find(Pair(9, 0)); !ok || PairValue(e) != 5 {
		t.Fatalf("Find(9) = (%#x,%v), want value 5", e, ok)
	}
}

func TestShardedTryInsertAllSaturation(t *testing.T) {
	// 2 shards × 8 cells; a shard saturates when its 8 cells fill (the
	// paper's tables must never be completely full, so the 8th insert
	// into one shard errors).
	tab := NewShardedTable[SetOps](16, 2)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	added, err := tab.TryInsertAll(keys)
	if err == nil {
		t.Fatal("expected ErrFull from oversubscribed sharded table")
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("error %v does not match ErrFull", err)
	}
	if added > 16 || added == 0 {
		t.Fatalf("added %d elements into 16 cells", added)
	}
	// Reserved key: reported, others still attempted.
	tab2 := NewShardedTable[SetOps](64, 2)
	added, err = tab2.TryInsertAll([]uint64{1, Empty, 2})
	if !errors.Is(err, ErrReservedKey) {
		t.Fatalf("error %v does not match ErrReservedKey", err)
	}
	if added != 2 {
		t.Fatalf("added %d, want 2", added)
	}
	if _, err := tab2.TryInsert(Empty); !errors.Is(err, ErrReservedKey) {
		t.Fatal("TryInsert(0) did not report ErrReservedKey")
	}
}

func TestShardedInsertAllPanicsOnReserved(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InsertAll(0) did not panic")
		}
	}()
	// Single worker so the panic unwinds the calling goroutine.
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(1))
	NewShardedTable[SetOps](64, 2).InsertAll([]uint64{Empty})
}

func TestShardedAutoShardCount(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	parallel.SetNumWorkers(4)
	// Earlier tests in this process may have run skewed bulk kernels,
	// raising the always-on imbalance gauge the auto policy consults;
	// this test pins the zero-gauge (static) policy.
	obs.CoreReset()
	big := NewShardedTable[SetOps](1<<20, 0)
	if got := big.NumShards(); got != 16 {
		t.Fatalf("auto shards at 4 workers = %d, want 16", got)
	}
	// Small tables clamp the count so shards keep >= tune.MinShardCells.
	small := NewShardedTable[SetOps](2*tune.MinShardCells, 0)
	if got := small.NumShards(); got > 2 {
		t.Fatalf("auto shards for %d cells = %d, want <= 2", 2*tune.MinShardCells, got)
	}
	if small.ShardSize() < tune.MinShardCells {
		t.Fatalf("shard size %d below tune.MinShardCells", small.ShardSize())
	}
	one := NewShardedTable[SetOps](128, 1)
	one.Insert(42)
	if !one.Contains(42) {
		t.Fatal("single-shard table lost its element")
	}
}

func TestShardedElementsInto(t *testing.T) {
	tab := NewShardedTable[SetOps](256, 4)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7}
	tab.InsertAll(keys)
	dst := make([]uint64, len(keys))
	if n := tab.ElementsInto(dst); n != len(keys) {
		t.Fatalf("ElementsInto = %d, want %d", n, len(keys))
	}
	want := tab.Elements()
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ElementsInto[%d] = %#x, want %#x", i, dst[i], want[i])
		}
	}
}
