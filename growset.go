package phasehash

import "phasehash/internal/core"

// GrowSet is a Set that resizes itself during insert phases — the
// paper's Section 4 resizing extension. It keeps one live table: when
// the count of insert calls reaches half the capacity, one insert
// rehashes every key into a larger table while the other inserts wait,
// then they continue on the new table. Insert results are exact (the
// true results of a phase count its new keys, bulk and per-element
// alike), and the layout — hence Elements' order — is deterministic
// exactly like Set's. The price is progress: inserts may block while a
// resize runs, where Set's operations never block. The phase discipline
// matches Set's.
type GrowSet struct {
	t *core.GrowTable[core.SetOps]
}

// NewGrowSet returns a growing set with the given initial capacity.
func NewGrowSet(initial int) *GrowSet {
	return &GrowSet{t: core.NewGrowTable[core.SetOps](initial)}
}

// Insert adds k (insert phase), growing as needed. It panics on the
// reserved key 0; use TryInsert to get an error instead.
func (s *GrowSet) Insert(k uint64) bool { return s.t.Insert(k) }

// TryInsert is Insert returning ErrReservedKey (matchable with
// errors.Is) instead of panicking on key 0. A growing set never
// reports ErrFull: saturation triggers a grow.
func (s *GrowSet) TryInsert(k uint64) (bool, error) { return s.t.TryInsert(k) }

// Contains reports membership (read phase).
func (s *GrowSet) Contains(k uint64) bool { return s.t.Contains(k) }

// Delete removes k (delete phase).
func (s *GrowSet) Delete(k uint64) bool { return s.t.Delete(k) }

// Elements returns the keys in a deterministic order (quiescent callers
// only).
func (s *GrowSet) Elements() []uint64 { return s.t.Elements() }

// Count returns the number of keys (quiescent callers only).
func (s *GrowSet) Count() int { return s.t.Count() }

// Capacity returns the current backing array size.
func (s *GrowSet) Capacity() int { return s.t.Size() }
