package phasehash

import (
	"errors"
	"fmt"
	"testing"

	"phasehash/internal/core"
)

// The TryInsert facade tests check every public container degrades to a
// sentinel error — never a panic — on saturation and reserved inputs,
// and that the re-exported sentinels match with errors.Is.

func TestSetTryInsertFull(t *testing.T) {
	s := NewSet(8)
	for k := uint64(1); k <= 8; k++ {
		if added, err := s.TryInsert(k); err != nil || !added {
			t.Fatalf("TryInsert(%d) = %v, %v", k, added, err)
		}
	}
	added, err := s.TryInsert(99)
	if added || !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsert on full set = %v, %v; want false, ErrFull", added, err)
	}
	if _, err := s.TryInsert(0); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsert(0) err = %v, want ErrReservedKey", err)
	}
	if n := s.Count(); n != 8 {
		t.Fatalf("Count = %d after rejected inserts", n)
	}
}

func TestMap32TryInsertSentinels(t *testing.T) {
	m := NewMap32(8, KeepMin)
	if _, err := m.TryInsert(0, 7); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsert(0, _) err = %v, want ErrReservedKey", err)
	}
	for k := uint32(1); k <= 8; k++ {
		if added, err := m.TryInsert(k, k); err != nil || !added {
			t.Fatalf("TryInsert(%d) = %v, %v", k, added, err)
		}
	}
	if added, err := m.TryInsert(99, 99); added || !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsert on full map = %v, %v; want false, ErrFull", added, err)
	}
	// Duplicate-key resolution still works at saturation.
	if added, err := m.TryInsert(3, 1); added || err != nil {
		t.Fatalf("duplicate TryInsert = %v, %v", added, err)
	}
	if v, ok := m.Find(3); !ok || v != 1 {
		t.Fatalf("Find(3) = %d, %v; want KeepMin value 1", v, ok)
	}
}

func TestStringMapTryInsertFull(t *testing.T) {
	m := NewStringMap(4, Sum)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if added, err := m.TryInsert(k, 1); err != nil || !added {
			t.Fatalf("TryInsert(%q) = %v, %v", k, added, err)
		}
	}
	if added, err := m.TryInsert("overflow", 1); added || !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsert on full string map = %v, %v; want false, ErrFull", added, err)
	}
	if added, err := m.TryInsert("b", 5); added || err != nil {
		t.Fatalf("duplicate TryInsert = %v, %v", added, err)
	}
	if v, ok := m.Find("b"); !ok || v != 6 {
		t.Fatalf("Find(b) = %d, %v; want summed value 6", v, ok)
	}
}

func TestGrowSetTryInsert(t *testing.T) {
	s := NewGrowSet(64)
	if _, err := s.TryInsert(0); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsert(0) err = %v, want ErrReservedKey", err)
	}
	// Far past the initial capacity: growth absorbs it, never ErrFull.
	for k := uint64(1); k <= 1024; k++ {
		if _, err := s.TryInsert(k); err != nil {
			t.Fatalf("TryInsert(%d) err = %v", k, err)
		}
	}
	if n := s.Count(); n != 1024 {
		t.Fatalf("Count = %d, want 1024", n)
	}
}

func TestCheckedTryInsertIsInsertPhase(t *testing.T) {
	c := Checked(NewSet(64))
	if err := c.guard.Enter(core.PhaseRead); err != nil {
		t.Fatal(err)
	}
	defer c.guard.Exit(core.PhaseRead)
	defer expectPhasePanic(t, "read")
	c.TryInsert(1) // panics before returning
}

// TestCheckedSetClearQuiescentOnly is the regression test for the
// formerly unguarded CheckedSet.Clear: Clear is a phase barrier by
// itself and must refuse to overlap any operation, of any phase.
func TestCheckedSetClearQuiescentOnly(t *testing.T) {
	c := Checked(NewSet(64))
	c.Insert(1)
	c.Insert(2)

	// Clear during an in-flight insert phase must panic.
	func() {
		if err := c.guard.Enter(core.PhaseInsert); err != nil {
			t.Fatal(err)
		}
		defer c.guard.Exit(core.PhaseInsert)
		defer expectPhasePanic(t, "insert")
		c.Clear()
	}()

	// Any operation during an in-flight Clear must panic too.
	func() {
		if err := c.guard.EnterExclusive(); err != nil {
			t.Fatal(err)
		}
		defer c.guard.Exit(core.PhaseExclusive)
		defer expectPhasePanic(t, "exclusive")
		c.Contains(1)
	}()

	// A second Clear during an in-flight Clear must panic as well.
	func() {
		if err := c.guard.EnterExclusive(); err != nil {
			t.Fatal(err)
		}
		defer c.guard.Exit(core.PhaseExclusive)
		defer expectPhasePanic(t, "exclusive")
		c.Clear()
	}()

	// Quiescent Clear works and returns the guard to idle.
	c.Clear()
	if n := c.Count(); n != 0 {
		t.Fatalf("Count = %d after Clear", n)
	}
	c.Insert(3)
	if !c.Contains(3) {
		t.Fatal("set unusable after Clear")
	}
}

// TestSaturatedStringMapProbesTerminate fills a StringMap to its
// power-of-two capacity and probes it for a key that sorts below every
// stored one: no cell stops that probe, so only the whole-array sweep
// bound ends it.
func TestSaturatedStringMapProbesTerminate(t *testing.T) {
	m := NewStringMap(8, KeepMin)
	for i := 0; i < 8; i++ {
		if added, err := m.TryInsert(fmt.Sprintf("k%d", i), uint64(i)); err != nil || !added {
			t.Fatalf("TryInsert(k%d) = %v, %v", i, added, err)
		}
	}
	if _, ok := m.Find(""); ok {
		t.Fatal(`absent key "" reported present`)
	}
	if m.Delete("") {
		t.Fatal(`deleting absent key "" reported success`)
	}
	if !m.Delete("k3") {
		t.Fatal("deleting a stored key from the full map failed")
	}
	if n := m.Count(); n != 7 {
		t.Fatalf("Count = %d, want 7", n)
	}
	if v, ok := m.Find("k5"); !ok || v != 5 {
		t.Fatalf(`Find("k5") = %d, %v after the delete`, v, ok)
	}
}
