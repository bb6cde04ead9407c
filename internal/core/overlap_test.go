package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"phasehash/internal/parallel"
)

// distinctCount returns the number of distinct values across the slices.
func distinctCount(xs ...[]uint64) int {
	seen := map[uint64]bool{}
	for _, x := range xs {
		for _, v := range x {
			seen[v] = true
		}
	}
	return len(seen)
}

// overlapPerElement runs op(i) for every i in [0, n) from three
// goroutines while bulk runs on the calling goroutine, all in one
// phase, and returns how many op calls reported true.
func overlapPerElement(n int, op func(i int) bool, bulk func()) int {
	const goroutines = 3
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += goroutines {
				if op(i) {
					hits.Add(1)
				}
			}
		}(g)
	}
	bulk()
	wg.Wait()
	return int(hits.Load())
}

// TestShardedBulkOverlapsPerElement pins the phase contract of the
// sharded bulk calls: InsertAll, FindAll and DeleteAll may overlap
// same-phase per-element calls on overlapping keys, and the quiescent
// layout is still the one a sequential build of the same operations
// reaches. Under -race it also shows the bulk kernels and the
// per-element loops share only atomic cell accesses.
func TestShardedBulkOverlapsPerElement(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(4))
	const n, shards = 1 << 13, 8
	// Both key sets draw from [1, n], so they share keys and each holds
	// duplicates.
	bulkKeys, elemKeys := shardedKeys(n, 21), shardedKeys(n, 22)
	tab := NewShardedTable[SetOps](4*n, shards)
	ref := NewShardedTable[SetOps](4*n, shards)
	sameLayout := func(stage string) {
		t.Helper()
		if !slices.Equal(tab.Snapshot(), ref.Snapshot()) {
			t.Fatalf("%s: layout differs from the sequential build", stage)
		}
		if err := tab.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	// Insert phase: InsertAll against Insert and TryInsert.
	for _, k := range append(slices.Clone(bulkKeys), elemKeys...) {
		ref.Insert(k)
	}
	var bulkAdded int
	elemAdded := overlapPerElement(n, func(i int) bool {
		if i%2 == 0 {
			return tab.Insert(elemKeys[i])
		}
		added, err := tab.TryInsert(elemKeys[i])
		if err != nil {
			t.Error(err)
		}
		return added
	}, func() { bulkAdded = tab.InsertAll(bulkKeys) })
	if got, want := bulkAdded+elemAdded, distinctCount(bulkKeys, elemKeys); got != want {
		t.Fatalf("inserts added %d keys, want the %d distinct", got, want)
	}
	sameLayout("insert")

	// Find phase: FindAll against Find; every key is present.
	dst := make([]uint64, n)
	var found int
	hits := overlapPerElement(n, func(i int) bool {
		e, ok := tab.Find(elemKeys[i])
		return ok && e == elemKeys[i]
	}, func() { found = tab.FindAll(bulkKeys, dst) })
	if found != n || hits != n {
		t.Fatalf("FindAll found %d, Find hit %d, want %d each", found, hits, n)
	}
	if !slices.Equal(dst, bulkKeys) {
		t.Fatal("FindAll dst differs from the keys it found")
	}
	sameLayout("find")

	// Delete phase: DeleteAll against Delete on overlapping halves.
	delBulk, delElem := bulkKeys[:n/2], elemKeys[:n/2]
	for _, k := range append(slices.Clone(delBulk), delElem...) {
		ref.Delete(k)
	}
	var bulkDeleted int
	elemDeleted := overlapPerElement(len(delElem), func(i int) bool {
		return tab.Delete(delElem[i])
	}, func() { bulkDeleted = tab.DeleteAll(delBulk) })
	if got, want := bulkDeleted+elemDeleted, distinctCount(delBulk, delElem); got != want {
		t.Fatalf("deletes removed %d keys, want the %d distinct", got, want)
	}
	sameLayout("delete")
}
