// Package sharded exercises the diagnostics on the sharded layouts
// (NewShardedSet and NewShardedMap32, which return a plain Set and
// Map32, and core.ShardedTable): the per-element operations and bulk
// kernels carry the same phase classification as the flat layouts, so
// cross-phase overlaps must be reported and barrier-separated phases
// must stay silent. Same-phase overlaps of bulk and per-element calls
// are legal, as on the flat layouts.
package sharded

import (
	"sync"

	"phasehash"
	"phasehash/internal/core"
)

// One bulk call per phase in straight-line code is the intended idiom.
func sequentialShardedOK(keys []uint64) {
	s := phasehash.NewShardedSet(1024, 8)
	s.InsertAll(keys)
	_ = s.ContainsAll(keys)
	s.DeleteAll(keys)
	_ = s.Elements()
}

// A sharded bulk insert on another goroutine overlapping a bulk read is
// the same cross-phase violation as on the flat set.
func shardedBulkMixedWithoutBarrier(keys []uint64) {
	s := phasehash.NewShardedSet(1024, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.InsertAll(keys)
	}()
	_ = s.ContainsAll(keys) // want `ContainsAll \(read phase\) on s may overlap insert-phase operations`
	wg.Wait()
}

// Per-element sharded operations are classified like the flat ones.
func shardedPerElementMix(keys []uint64) {
	s := phasehash.NewShardedSet(1024, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, k := range keys {
			s.Insert(k)
		}
	}()
	s.Delete(keys[0]) // want `Delete \(delete phase\) on s may overlap insert-phase operations`
	wg.Wait()
}

// A WaitGroup join between sharded bulk phases is a barrier; silent.
func shardedBarrierOK(keys []uint64) {
	s := phasehash.NewShardedSet(1024, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.InsertAll(keys)
	}()
	wg.Wait()
	_ = s.ContainsAll(keys)
	s.DeleteAll(keys)
}

// A bulk insert overlapping same-phase per-element inserts is legal;
// silent.
func shardedSamePhaseOverlapOK(keys []uint64) {
	s := phasehash.NewShardedSet(1024, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.InsertAll(keys)
	}()
	s.Insert(keys[0])
	wg.Wait()
}

// Two goroutines issuing conflicting sharded phases trip the goroutine
// diagnostic.
func twoGoroutinesShardedMixed(keys []uint64) {
	s := phasehash.NewShardedSet(1024, 8)
	done := make(chan struct{}, 2)
	go func() {
		s.InsertAll(keys)
		done <- struct{}{}
	}()
	go func() {
		s.DeleteAll(keys) // want `DeleteAll \(delete phase\) on s inside a goroutine or parallel closure may overlap insert-phase`
		done <- struct{}{}
	}()
	<-done
	<-done
}

// Sharded Map32 kernels carry the same classification.
func shardedMap32Mix(entries []phasehash.Entry, keys []uint32) {
	m := phasehash.NewShardedMap32(1024, phasehash.KeepMin, 4)
	go m.InsertAll(entries)
	_ = m.FindAll(keys, nil) // want `FindAll \(read phase\) on m may overlap insert-phase operations`
}

// The core ShardedTable is classified too (application packages and the
// tables facade call it directly).
func coreShardedMix(keys []uint64) {
	t := core.NewShardedTable[core.SetOps](1024, 8)
	go t.InsertAll(keys)
	_ = t.FindAll(keys, nil) // want `FindAll \(read phase\) on t may overlap insert-phase operations`
}

func coreShardedTryInsertMix(keys []uint64) {
	t := core.NewShardedTable[core.SetOps](1024, 8)
	go t.DeleteAll(keys)
	_, _ = t.TryInsertAll(keys) // want `TryInsertAll \(insert phase\) on t may overlap delete-phase operations`
}

// Barrier-separated core sharded phases stay silent, including the
// captures after the join.
func coreShardedBarrierOK(keys []uint64) {
	t := core.NewShardedTable[core.SetOps](1024, 8)
	done := make(chan struct{})
	go func() {
		t.InsertAll(keys)
		close(done)
	}()
	<-done
	_ = t.ContainsAll(keys)
	_ = t.Elements()
	_ = t.Count()
}
