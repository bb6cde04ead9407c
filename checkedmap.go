package phasehash

import "phasehash/internal/core"

// CheckedMap32 wraps a Map32, of either layout, with a runtime
// phase-discipline detector: any operation that overlaps in time with
// an operation from a different phase panics with a diagnostic.
type CheckedMap32 struct {
	m     *Map32
	guard core.PhaseGuard
}

// NewCheckedMap32 wraps m with phase checking.
func NewCheckedMap32(m *Map32) *CheckedMap32 { return &CheckedMap32{m: m} }

// Insert is Map32.Insert with phase checking.
func (c *CheckedMap32) Insert(k, v uint32) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.Insert(k, v)
}

// TryInsert is Map32.TryInsert with phase checking.
func (c *CheckedMap32) TryInsert(k, v uint32) (bool, error) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.TryInsert(k, v)
}

// InsertAll is Map32.InsertAll with phase checking.
func (c *CheckedMap32) InsertAll(entries []Entry) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.InsertAll(entries)
}

// TryInsertAll is Map32.TryInsertAll with phase checking.
func (c *CheckedMap32) TryInsertAll(entries []Entry) (int, error) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.TryInsertAll(entries)
}

// Delete is Map32.Delete with phase checking.
func (c *CheckedMap32) Delete(k uint32) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseDelete))
	return c.m.Delete(k)
}

// DeleteAll is Map32.DeleteAll with phase checking.
func (c *CheckedMap32) DeleteAll(keys []uint32) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseDelete))
	return c.m.DeleteAll(keys)
}

// Find is Map32.Find with phase checking.
func (c *CheckedMap32) Find(k uint32) (uint32, bool) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.Find(k)
}

// FindAll is Map32.FindAll with phase checking.
func (c *CheckedMap32) FindAll(keys []uint32, vals []uint32) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.FindAll(keys, vals)
}

// Entries is Map32.Entries with phase checking.
func (c *CheckedMap32) Entries() []Entry {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.Entries()
}

// Count is Map32.Count with phase checking.
func (c *CheckedMap32) Count() int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.Count()
}

// Unwrap returns the underlying Map32.
func (c *CheckedMap32) Unwrap() *Map32 { return c.m }

// CheckedStringMap wraps a StringMap with a runtime phase-discipline
// detector.
type CheckedStringMap struct {
	m     *StringMap
	guard core.PhaseGuard
}

// NewCheckedStringMap wraps m with phase checking.
func NewCheckedStringMap(m *StringMap) *CheckedStringMap { return &CheckedStringMap{m: m} }

// Insert is StringMap.Insert with phase checking.
func (c *CheckedStringMap) Insert(k string, v uint64) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.Insert(k, v)
}

// TryInsert is StringMap.TryInsert with phase checking.
func (c *CheckedStringMap) TryInsert(k string, v uint64) (bool, error) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.TryInsert(k, v)
}

// InsertAll is StringMap.InsertAll with phase checking.
func (c *CheckedStringMap) InsertAll(keys []string, vals []uint64) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.InsertAll(keys, vals)
}

// TryInsertAll is StringMap.TryInsertAll with phase checking.
func (c *CheckedStringMap) TryInsertAll(keys []string, vals []uint64) (int, error) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.m.TryInsertAll(keys, vals)
}

// Delete is StringMap.Delete with phase checking.
func (c *CheckedStringMap) Delete(k string) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseDelete))
	return c.m.Delete(k)
}

// DeleteAll is StringMap.DeleteAll with phase checking.
func (c *CheckedStringMap) DeleteAll(keys []string) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseDelete))
	return c.m.DeleteAll(keys)
}

// Find is StringMap.Find with phase checking.
func (c *CheckedStringMap) Find(k string) (uint64, bool) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.Find(k)
}

// FindAll is StringMap.FindAll with phase checking.
func (c *CheckedStringMap) FindAll(keys []string, vals []uint64) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.FindAll(keys, vals)
}

// Entries is StringMap.Entries with phase checking.
func (c *CheckedStringMap) Entries() []StringEntry {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.Entries()
}

// Count is StringMap.Count with phase checking.
func (c *CheckedStringMap) Count() int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.m.Count()
}

// Unwrap returns the underlying StringMap.
func (c *CheckedStringMap) Unwrap() *StringMap { return c.m }
