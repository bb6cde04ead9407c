// Package wrappers exercises the per-type diagnostics (the suggested
// Checked* wrapper is named per table type) and the negative cases for
// the runtime-checked and room-synchronized containers, which are
// exempt from static checking.
package wrappers

import (
	"sync"

	"phasehash"
)

func map32Mixed() {
	m := phasehash.NewMap32(64, phasehash.KeepMin)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Insert(1, 1)
	}()
	_, _ = m.Find(1) // want `wrap the table with phasehash\.NewCheckedMap32`
	wg.Wait()
}

func stringMapMixed() {
	m := phasehash.NewStringMap(64, phasehash.Sum)
	go m.Insert("k", 1)
	m.Delete("k") // want `wrap the table with phasehash\.NewCheckedStringMap`
}

func growSetMixed() {
	s := phasehash.NewGrowSet(16)
	go s.Insert(1)
	_ = s.Elements()  // want `Elements result on s captured while insert-phase operations`
	_ = s.Contains(2) // want `wrap the table with phasehash\.Checked`
}

// CompactSet is an alias of Set, so calls through it are classified
// and the suggested wrapper is Set's.
func compactSetAliasMixed(keys []uint64) {
	var s *phasehash.CompactSet = phasehash.NewCompactSet(64)
	go s.InsertAll(keys)
	_ = s.ContainsAll(keys) // want `wrap the table with phasehash\.Checked`
}

// TryInsert is the graceful-degradation twin of Insert and classifies
// into the insert phase exactly like it.
func setTryInsertMixed() {
	s := phasehash.NewSet(64)
	go s.TryInsert(1)
	_ = s.Elements()  // want `Elements result on s captured while insert-phase operations`
	_ = s.Contains(2) // want `wrap the table with phasehash\.Checked`
}

// A barrier separates the phases: TryInsert then read is clean.
func setTryInsertBarrierOK() {
	s := phasehash.NewSet(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.TryInsert(1); err != nil {
			return
		}
	}()
	wg.Wait()
	_ = s.Elements()
}

func mapBarrierOK() {
	m := phasehash.NewMap32(64, phasehash.Sum)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Insert(1, 1)
	}()
	wg.Wait()
	_, _ = m.Find(1)
	_ = m.Entries()
}

// The runtime-checked wrappers catch violations dynamically; phasevet
// deliberately stays silent on them.
func checkedSetOK() {
	s := phasehash.Checked(phasehash.NewSet(64))
	go s.Insert(1)
	_ = s.Elements()
	_ = s.Count()
}

func checkedMap32OK() {
	m := phasehash.NewCheckedMap32(phasehash.NewMap32(64, phasehash.Sum))
	go m.Insert(1, 2)
	_, _ = m.Find(1)
}

func checkedGrowSetOK() {
	s := phasehash.Checked(phasehash.NewGrowSet(16))
	go s.Insert(1)
	_ = s.Elements()
}
