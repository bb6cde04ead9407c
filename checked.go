package phasehash

import "phasehash/internal/core"

// This file and checkedmap.go give every public phase-disciplined
// container a runtime-checked twin: CheckedSet (for every Set layout),
// CheckedMap32 and CheckedStringMap. Each twin has every
// phase-classified method of the container it wraps, bulk calls
// included, so the phasevet static analyzer can suggest it by name in
// its diagnostics.

// enter admits an operation of phase p under g and returns p for the
// caller's deferred g.Exit. It panics with a diagnostic when an
// operation of a different phase is in flight, or, for PhaseExclusive,
// when any operation is.
func enter(g *core.PhaseGuard, p core.Phase) core.Phase {
	var err error
	if p == core.PhaseExclusive {
		err = g.EnterExclusive()
	} else {
		err = g.Enter(p)
	}
	if err != nil {
		panic(err)
	}
	return p
}

// CheckedSet wraps a Set with a runtime phase-discipline detector: any
// operation that overlaps in time with an operation from a different
// phase panics with a diagnostic. Use it in tests and development
// builds; the raw Set carries no checking overhead.
type CheckedSet struct {
	s     *Set
	guard core.PhaseGuard
}

// Checked wraps s, of any layout, with phase checking.
func Checked(s *Set) *CheckedSet { return &CheckedSet{s: s} }

// Insert is Set.Insert with phase checking.
func (c *CheckedSet) Insert(k uint64) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.s.Insert(k)
}

// TryInsert is Set.TryInsert with phase checking.
func (c *CheckedSet) TryInsert(k uint64) (bool, error) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.s.TryInsert(k)
}

// InsertAll is Set.InsertAll with phase checking.
func (c *CheckedSet) InsertAll(keys []uint64) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.s.InsertAll(keys)
}

// TryInsertAll is Set.TryInsertAll with phase checking.
func (c *CheckedSet) TryInsertAll(keys []uint64) (int, error) {
	defer c.guard.Exit(enter(&c.guard, core.PhaseInsert))
	return c.s.TryInsertAll(keys)
}

// Delete is Set.Delete with phase checking.
func (c *CheckedSet) Delete(k uint64) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseDelete))
	return c.s.Delete(k)
}

// DeleteAll is Set.DeleteAll with phase checking.
func (c *CheckedSet) DeleteAll(keys []uint64) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseDelete))
	return c.s.DeleteAll(keys)
}

// Contains is Set.Contains with phase checking.
func (c *CheckedSet) Contains(k uint64) bool {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.s.Contains(k)
}

// ContainsAll is Set.ContainsAll with phase checking.
func (c *CheckedSet) ContainsAll(keys []uint64) int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.s.ContainsAll(keys)
}

// Elements is Set.Elements with phase checking.
func (c *CheckedSet) Elements() []uint64 {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.s.Elements()
}

// Count is Set.Count with phase checking.
func (c *CheckedSet) Count() int {
	defer c.guard.Exit(enter(&c.guard, core.PhaseRead))
	return c.s.Count()
}

// Clear is Set.Clear with quiescence checking: Clear is a phase
// barrier by itself, so it panics if any operation — of any phase,
// including another Clear — is in flight when it starts.
func (c *CheckedSet) Clear() {
	defer c.guard.Exit(enter(&c.guard, core.PhaseExclusive))
	c.s.Clear()
}

// Unwrap returns the underlying Set.
func (c *CheckedSet) Unwrap() *Set { return c.s }
