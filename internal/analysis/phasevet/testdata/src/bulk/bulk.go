// Package bulk exercises the diagnostics on the bulk phase kernels
// (InsertAll / FindAll / ContainsAll / DeleteAll / TryInsertAll): a
// bulk call carries the phase of its per-element counterpart, so
// mixing it with another phase without a barrier must be reported and
// barrier-separated bulk phases must stay silent.
package bulk

import (
	"sync"

	"phasehash"
	"phasehash/internal/core"
)

// Whole-phase bulk calls separated by plain sequential control flow are
// the intended idiom: one call per phase, no overlap possible.
func sequentialBulkOK(keys []uint64) {
	s := phasehash.NewSet(1024)
	s.InsertAll(keys)
	_ = s.ContainsAll(keys)
	s.DeleteAll(keys)
	_ = s.Elements()
}

// A bulk insert on another goroutine overlapping a bulk read is the
// same violation as its per-element counterpart.
func bulkMixedWithoutBarrier(keys []uint64) {
	s := phasehash.NewSet(1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.InsertAll(keys)
	}()
	_ = s.ContainsAll(keys) // want `ContainsAll \(read phase\) on s may overlap insert-phase operations`
	wg.Wait()
}

// Bulk delete racing bulk insert mixes write phases.
func bulkInsertDeleteMix(keys []uint64) {
	s := phasehash.NewSet(1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.TryInsertAll(keys)
	}()
	s.DeleteAll(keys) // want `DeleteAll \(delete phase\) on s may overlap insert-phase operations`
	wg.Wait()
}

// A WaitGroup join between bulk phases is a barrier; no diagnostics.
func bulkBarrierOK(keys []uint64) {
	s := phasehash.NewSet(1024)
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

// Two goroutines issuing conflicting bulk phases trip the goroutine
// diagnostic, exactly like their per-element counterparts.
func twoGoroutinesBulkMixed(keys []uint64) {
	s := phasehash.NewSet(1024)
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

// Same-phase bulk calls from sibling goroutines are fine — phase
// concurrency is the whole point.
func twoGoroutinesBulkSamePhaseOK(a, b []uint64) {
	s := phasehash.NewSet(1024)
	done := make(chan struct{}, 2)
	go func() {
		s.InsertAll(a)
		done <- struct{}{}
	}()
	go func() {
		s.InsertAll(b)
		done <- struct{}{}
	}()
	<-done
	<-done
}

// Map32 bulk kernels carry the same classification.
func map32BulkMix(entries []phasehash.Entry, keys []uint32) {
	m := phasehash.NewMap32(1024, phasehash.KeepMin)
	go m.InsertAll(entries)
	_ = m.FindAll(keys, nil) // want `FindAll \(read phase\) on m may overlap insert-phase operations`
}

// StringMap bulk kernels, delete against read.
func stringMapBulkMix(keys []string) {
	m := phasehash.NewStringMap(1024, phasehash.Sum)
	go m.DeleteAll(keys)
	_ = m.FindAll(keys, nil) // want `FindAll \(read phase\) on m may overlap delete-phase operations`
}

// Growing-set (NewGrowSet) bulk kernels.
func growSetBulkMix(keys []uint64) {
	g := phasehash.NewGrowSet(64)
	go g.InsertAll(keys)
	_ = g.ContainsAll(keys) // want `ContainsAll \(read phase\) on g may overlap insert-phase operations`
}

// The core tables' bulk kernels are classified too (application
// packages call them directly).
func coreBulkMix(keys []uint64) {
	t := core.NewWordTable[core.SetOps](1024)
	go t.InsertAll(keys)
	_ = t.FindAll(keys, nil) // want `FindAll \(read phase\) on t may overlap insert-phase operations`
}

func coreGrowBulkMix(keys []uint64) {
	g := core.NewGrowTable[core.SetOps](64)
	go g.DeleteAll(keys)
	_, _ = g.TryInsertAll(keys) // want `TryInsertAll \(insert phase\) on g may overlap delete-phase operations`
}

// Barrier-separated core bulk phases stay silent, including a capture
// after the join.
func coreBulkBarrierOK(keys []uint64) {
	t := core.NewWordTable[core.SetOps](1024)
	done := make(chan struct{})
	go func() {
		t.InsertAll(keys)
		close(done)
	}()
	<-done
	_ = t.ContainsAll(keys)
	_ = t.Elements()
}
