package phasehash

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"phasehash/internal/core"
)

func TestCheckedMap32AllowsLegalPhases(t *testing.T) {
	c := NewCheckedMap32(NewMap32(256, KeepMin))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint32(w*50 + 1); k < uint32(w*50+51); k++ {
				c.Insert(k, k*2)
			}
		}(w)
	}
	wg.Wait()
	if c.Count() != 200 {
		t.Fatalf("Count = %d", c.Count())
	}
	if v, ok := c.Find(7); !ok || v != 14 {
		t.Fatalf("Find(7) = %d, %v", v, ok)
	}
	if got := len(c.Entries()); got != 200 {
		t.Fatalf("len(Entries) = %d", got)
	}
	c.Delete(7)
	if _, ok := c.Unwrap().Find(7); ok {
		t.Fatal("Delete(7) did not remove the key")
	}
}

func TestCheckedMap32DetectsViolation(t *testing.T) {
	c := NewCheckedMap32(NewMap32(256, Sum))
	if err := c.guard.Enter(core.PhaseInsert); err != nil {
		t.Fatal(err)
	}
	defer c.guard.Exit(core.PhaseInsert)
	defer expectPhasePanic(t, "insert")
	c.Find(1)
}

func TestCheckedStringMapAllowsLegalPhases(t *testing.T) {
	c := NewCheckedStringMap(NewStringMap(256, Sum))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Insert(fmt.Sprintf("key-%d", i), 1)
			}
		}(w)
	}
	wg.Wait()
	if c.Count() != 50 {
		t.Fatalf("Count = %d", c.Count())
	}
	if v, ok := c.Find("key-3"); !ok || v != 4 {
		t.Fatalf(`Find("key-3") = %d, %v, want 4 (summed across workers)`, v, ok)
	}
	if got := len(c.Entries()); got != 50 {
		t.Fatalf("len(Entries) = %d", got)
	}
	c.Delete("key-3")
	if _, ok := c.Unwrap().Find("key-3"); ok {
		t.Fatal("Delete did not remove the key")
	}
}

func TestCheckedStringMapDetectsViolation(t *testing.T) {
	c := NewCheckedStringMap(NewStringMap(256, KeepMin))
	if err := c.guard.Enter(core.PhaseRead); err != nil {
		t.Fatal(err)
	}
	defer c.guard.Exit(core.PhaseRead)
	defer expectPhasePanic(t, "read")
	c.Insert("k", 1)
}

func TestCheckedGrowSetAllowsLegalPhases(t *testing.T) {
	c := Checked(NewGrowSet(16))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(w*500 + 1); k < uint64(w*500+501); k++ {
				c.Insert(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Count() != 2000 {
		t.Fatalf("Count = %d", c.Count())
	}
	if !c.Contains(1) {
		t.Fatal("Contains(1) = false")
	}
	if got := len(c.Elements()); got != 2000 {
		t.Fatalf("len(Elements) = %d", got)
	}
	c.Delete(1)
	if c.Unwrap().Contains(1) {
		t.Fatal("Delete(1) did not remove the key")
	}
}

func TestCheckedGrowSetDetectsViolation(t *testing.T) {
	c := Checked(NewGrowSet(16))
	if err := c.guard.Enter(core.PhaseDelete); err != nil {
		t.Fatal(err)
	}
	defer c.guard.Exit(core.PhaseDelete)
	defer expectPhasePanic(t, "delete")
	c.Elements()
}

// expectPhasePanic asserts the deferred recovery sees a PhaseGuard
// violation naming the active phase.
func expectPhasePanic(t *testing.T, activePhase string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatal("operation during a conflicting phase did not panic")
	}
	err, ok := r.(error)
	if !ok {
		t.Fatalf("panic value %v is not an error", r)
	}
	want := fmt.Sprintf("during %s phase", activePhase)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("panic %q does not mention %q", err, want)
	}
}
