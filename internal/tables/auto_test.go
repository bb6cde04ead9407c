package tables

import (
	"testing"

	"phasehash/internal/core"
)

// autoScript drives one AutoTable through a fixed operation script:
// fill to high load, run a find-heavy stretch, then a bulk find (the
// boundary where the kind decision fires). Returns the table for
// inspection.
func autoScript(n int) *AutoTable[core.SetOps] {
	a := NewAutoTable[core.SetOps](n)
	elems := make([]uint64, 0, n*8/10)
	for v := uint64(1); v <= uint64(n*8/10); v++ {
		elems = append(elems, v)
	}
	a.InsertAll(elems) // load ~0.8
	for i := 0; i < 4; i++ {
		a.FindAll(elems, nil) // find-heavy mix
	}
	return a
}

// TestAutoTableMigratesToCompact asserts the representation switches
// to compact once the load factor and find share cross the
// TableKindFor thresholds, preserving the element set, and that the decision is
// recorded.
func TestAutoTableMigratesToCompact(t *testing.T) {
	a := autoScript(1 << 12)
	if a.Kind() != LinearDCompact {
		t.Fatalf("kind after find-heavy high-load script = %v, want %v (trace: %q)",
			a.Kind(), LinearDCompact, a.TuneTrace())
	}
	if a.TuneTrace() == "" {
		t.Fatal("migration left no decision trace")
	}
	want := (1 << 12) * 8 / 10
	if got := a.Count(); got != want {
		t.Fatalf("Count after migration = %d, want %d", got, want)
	}
	if _, ok := a.Find(1); !ok {
		t.Fatal("element lost in migration")
	}
	// Compact layout carries a ctrl array: footprint grows past 8B/slot.
	if got := a.Bytes(); got <= a.Size()*8 {
		t.Fatalf("compact Bytes = %d, want > %d", got, a.Size()*8)
	}
}

// TestAutoTableMigratesBack asserts a delete-heavy low-load stretch
// flips the representation back to flat.
func TestAutoTableMigratesBack(t *testing.T) {
	a := autoScript(1 << 12)
	if a.Kind() != LinearDCompact {
		t.Skipf("precondition: script did not reach compact (trace %q)", a.TuneTrace())
	}
	elems := a.Elements()
	a.DeleteAll(elems[:len(elems)*9/10]) // load collapses
	a.DeleteAll(elems[len(elems)*9/10:]) // boundary sees the low load
	a.InsertAll([]uint64{7, 9})          // next boundary re-decides: flat
	if a.Kind() != LinearD {
		t.Fatalf("kind after drain = %v, want %v (trace: %q)", a.Kind(), LinearD, a.TuneTrace())
	}
	if got := a.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

// TestAutoTableDeterministicReplay asserts two runs of the same script
// produce byte-identical element order and identical decision traces —
// the AutoTable half of the tuning determinism contract.
func TestAutoTableDeterministicReplay(t *testing.T) {
	a := autoScript(1 << 12)
	b := autoScript(1 << 12)
	if a.TuneTrace() != b.TuneTrace() {
		t.Fatalf("traces diverge:\n%q\nvs\n%q", a.TuneTrace(), b.TuneTrace())
	}
	ea, eb := a.Elements(), b.Elements()
	if len(ea) != len(eb) {
		t.Fatalf("element counts diverge: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("element order diverges at %d: %#x vs %#x", i, ea[i], eb[i])
		}
	}
}

// TestAutoTableKindRegistry asserts the tables registry wires the auto
// kind with bulk and memory extensions and marks it deterministic.
func TestAutoTableKindRegistry(t *testing.T) {
	tab := MustNew[core.SetOps](LinearDAuto, 1024)
	if _, ok := AsBulk(tab); !ok {
		t.Fatal("auto kind lost the Bulk extension")
	}
	if _, ok := AsMemory(tab); !ok {
		t.Fatal("auto kind lost the Memory extension")
	}
	if !LinearDAuto.IsDeterministic() {
		t.Fatal("auto kind not marked deterministic")
	}
	// Thresholds referenced here so a policy change that would
	// invalidate autoScript's assumptions fails loudly.
	if CompactLoadPm > 800 {
		t.Fatalf("CompactLoadPm = %d; autoScript fills to 800pm and relies on crossing it", CompactLoadPm)
	}
}

// TestTableKindFor pins the load/mix crossover.
func TestTableKindFor(t *testing.T) {
	if got := TableKindFor(CompactLoadPm, CompactFindSharePm); got != LinearDCompact {
		t.Errorf("at thresholds: %v, want %v", got, LinearDCompact)
	}
	if got := TableKindFor(CompactLoadPm-1, 1000); got != LinearD {
		t.Errorf("low load: %v, want %v", got, LinearD)
	}
	if got := TableKindFor(1000, CompactFindSharePm-1); got != LinearD {
		t.Errorf("insert-heavy: %v, want %v", got, LinearD)
	}
}
