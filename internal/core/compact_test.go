package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

func TestCompactInsertFindBasic(t *testing.T) {
	tab := NewCompactTable[SetOps](16)
	for _, k := range []uint64{1, 2, 3, 100, 200} {
		if !tab.Insert(k) {
			t.Errorf("Insert(%d) reported duplicate on first insert", k)
		}
	}
	if tab.Insert(100) {
		t.Error("duplicate Insert(100) reported as new")
	}
	for _, k := range []uint64{1, 2, 3, 100, 200} {
		if !tab.Contains(k) {
			t.Errorf("Contains(%d) = false, want true", k)
		}
	}
	for _, k := range []uint64{4, 99, 201} {
		if tab.Contains(k) {
			t.Errorf("Contains(%d) = true, want false", k)
		}
	}
	if got := tab.Count(); got != 5 {
		t.Errorf("Count() = %d, want 5", got)
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestCompactMinimumCells(t *testing.T) {
	for _, size := range []int{-3, 0, 1, 7, 8} {
		if got := NewCompactTable[SetOps](size).Size(); got != 8 {
			t.Errorf("NewCompactTable(%d).Size() = %d, want 8", size, got)
		}
	}
	if got := NewCompactTable[SetOps](9).Size(); got != 16 {
		t.Errorf("NewCompactTable(9).Size() = %d, want 16", got)
	}
}

func TestCompactInsertEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(Empty) did not panic")
		}
	}()
	NewCompactTable[SetOps](8).Insert(Empty)
}

func TestCompactTryInsertFull(t *testing.T) {
	tab := NewCompactTable[SetOps](8)
	for k := uint64(1); k <= 8; k++ {
		if added, err := tab.TryInsert(k); err != nil || !added {
			t.Fatalf("TryInsert(%d) = %v, %v", k, added, err)
		}
	}
	// A saturated table answers finds correctly: no empty ctrl byte ever
	// ends the probe, so hits and misses go through the full-sweep path.
	for k := uint64(1); k <= 8; k++ {
		if !tab.Contains(k) {
			t.Fatalf("Contains(%d) = false on full table", k)
		}
	}
	if tab.Contains(100) {
		t.Fatal("Contains(100) = true on full table")
	}
	added, err := tab.TryInsert(100)
	if added || !errors.Is(err, ErrFull) {
		t.Fatalf("TryInsert on full table = %v, %v; want false, ErrFull", added, err)
	}
	// The message is the shared fullTableErr format, aligned with
	// WordTable's and PtrTable's.
	for _, want := range []string{"size 8", "count 8", "load factor 1.000"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ErrFull %q missing %q", err, want)
		}
	}
	if _, err := tab.TryInsert(Empty); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("TryInsert(Empty) err = %v, want ErrReservedKey", err)
	}
	// As with WordTable, the failed absent-key insert may displace
	// elements (dropping the lowest-priority one off the probe chain's
	// end — under the hash-keyed order that can be any of the keys), so
	// only the aggregate count and the ctrl/cells correspondence are
	// pinned here; the duplicate-merge check uses a key that survived.
	surv := tab.Elements()[0]
	if added, err := tab.TryInsert(surv); added || err != nil {
		t.Fatalf("duplicate TryInsert(%d) on full table = %v, %v", surv, added, err)
	}
	if n := tab.Count(); n != 8 {
		t.Fatalf("Count = %d after failed insert", n)
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactLoadFactor090 is the dedicated exact-0.9 stress: distinct
// keys filling 90% of the cells, driven through the bulk kernels, with
// hit and miss verification and a half-delete round.
func TestCompactLoadFactor090(t *testing.T) {
	const m = 1 << 13
	n := m * 9 / 10
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	prev := parallel.SetNumWorkers(4)
	defer parallel.SetNumWorkers(prev)

	tab := NewCompactTable[SetOps](m)
	if added := tab.InsertAll(keys); added != n {
		t.Fatalf("InsertAll added %d, want %d", added, n)
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, n)
	if found := tab.FindAll(keys, dst); found != n {
		t.Fatalf("FindAll found %d of %d at load 0.9", found, n)
	}
	for i, e := range dst {
		if e != keys[i] {
			t.Fatalf("FindAll dst[%d] = %#x, want %#x", i, e, keys[i])
		}
	}
	misses := make([]uint64, n)
	for i := range misses {
		misses[i] = uint64(n + i + 1)
	}
	if found := tab.ContainsAll(misses); found != 0 {
		t.Fatalf("ContainsAll reported %d hits for absent keys", found)
	}
	if deleted := tab.DeleteAll(keys[:n/2]); deleted != n/2 {
		t.Fatalf("DeleteAll removed %d, want %d", deleted, n/2)
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// History independence: the survivors' layout matches a fresh serial
	// one-at-a-time rebuild byte-for-byte, cells and ctrl — whatever the
	// bulk insert and half-delete schedules did in between.
	ref := NewCompactTable[SetOps](m)
	for _, k := range keys[n/2:] {
		ref.insertSerial(k)
	}
	refCells, gotCells := ref.Snapshot(), tab.Snapshot()
	for i := range refCells {
		if gotCells[i] != refCells[i] {
			t.Fatalf("cell %d = %#x after deletes, serial-rebuild reference %#x", i, gotCells[i], refCells[i])
		}
	}
	refCtrl, gotCtrl := ref.CtrlSnapshot(), tab.CtrlSnapshot()
	for i := range refCtrl {
		if gotCtrl[i] != refCtrl[i] {
			t.Fatalf("ctrl word %d = %#x after deletes, serial-rebuild reference %#x", i, gotCtrl[i], refCtrl[i])
		}
	}
}

// TestCompactAdversarialCluster forces one wrapped cluster with the
// identity hash (all fingerprints collide on 0x80, since small identity
// hashes have zero top bits — and the hash-keyed priority degenerates
// to the numeric key order), so every find walks tie-byte candidate
// lanes through the wraparound instead of priority-exiting early.
func TestCompactAdversarialCluster(t *testing.T) {
	tab := NewCompactTable[IdentOps](8)
	keys := []uint64{6, 14, 22, 30, 38} // all ≡ 6 mod 8: cluster wraps 6,7,0,1,...
	for _, k := range keys {
		tab.Insert(k)
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !tab.Contains(k) {
			t.Fatalf("key %d missing in wrapped cluster", k)
		}
	}
	if tab.cells[6] != 38 {
		t.Errorf("cell 6 = %d, want 38 (highest priority first)", tab.cells[6])
	}
	if tab.Contains(46) { // same home, absent
		t.Error("absent key 46 reported present in wrapped cluster")
	}
	if !tab.Delete(38) {
		t.Fatal("Delete(38) failed")
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{6, 14, 22, 30} {
		if !tab.Contains(k) {
			t.Fatalf("key %d lost after deleting cluster head", k)
		}
	}
	if !tab.Delete(22) {
		t.Fatal("Delete(22) failed")
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if tab.Contains(22) {
		t.Error("22 still present")
	}
	if got := tab.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
}

// TestCompactClearResetsCtrl checks Clear wipes both arrays (a stale
// ctrl byte after Clear would make later finds hallucinate matches).
func TestCompactClearResetsCtrl(t *testing.T) {
	tab := NewCompactTable[SetOps](64)
	for k := uint64(1); k <= 40; k++ {
		tab.Insert(k)
	}
	tab.Clear()
	if got := tab.Count(); got != 0 {
		t.Fatalf("Count = %d after Clear", got)
	}
	for _, w := range tab.CtrlSnapshot() {
		if w != 0 {
			t.Fatalf("ctrl word %#x nonzero after Clear", w)
		}
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// The table is fully reusable.
	for k := uint64(100); k < 140; k++ {
		tab.Insert(k)
	}
	if got := tab.Count(); got != 40 {
		t.Fatalf("Count = %d after reuse", got)
	}
	if err := tab.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactBytes pins the 9-bytes-per-slot memory accounting the
// benchmarks' bytes/elem metric divides from.
func TestCompactBytes(t *testing.T) {
	if got := NewCompactTable[SetOps](1 << 10).Bytes(); got != (1<<10)*9 {
		t.Fatalf("CompactTable(1024).Bytes() = %d, want %d", got, (1<<10)*9)
	}
}

// TestCompactCtrlContention races syncCtrl's fast path against itself:
// eight goroutines insert one shared pool of keys into a 64-cell table,
// each in its own order, then delete overlapping subsets. Homes sit in
// the last three lanes of each ctrl word, so displacement chains and
// delete back-shifts cross word boundaries and neighbouring slots'
// publications contend on one ctrl word. Each phase must end with the
// invariant holding and cells and ctrl equal to a serial rebuild of the
// surviving keys — no stale byte may outlive the race.
func TestCompactCtrlContention(t *testing.T) {
	const m, pool, goroutines, rounds = 64, 44, 8, 200
	rng := hashx.NewRNG(7)
	for round := 0; round < rounds; round++ {
		keys := make([]uint64, 0, pool)
		seen := map[uint64]bool{}
		for len(keys) < pool {
			home := uint64(8*rng.Intn(m/8) + 5 + rng.Intn(3))
			k := home | rng.Next()&^uint64(m-1)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		orders := make([][]uint64, goroutines)
		for g := range orders {
			o := slices.Clone(keys)
			for i := len(o) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				o[i], o[j] = o[j], o[i]
			}
			orders[g] = o
		}
		tab := NewCompactTable[IdentOps](m)
		race := func(lists [][]uint64, op func(k uint64)) {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, list := range lists {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for _, k := range list {
						op(k)
					}
				}()
			}
			close(start)
			wg.Wait()
		}
		canonical := func(stage string) {
			t.Helper()
			if err := tab.CheckInvariant(); err != nil {
				t.Fatalf("round %d, %s: %v", round, stage, err)
			}
			ref := NewCompactTable[IdentOps](m)
			for k := range seen {
				ref.insertSerial(k)
			}
			if got, want := tab.Snapshot(), ref.Snapshot(); !slices.Equal(got, want) {
				t.Fatalf("round %d, %s: cells %x, serial rebuild %x", round, stage, got, want)
			}
			if got, want := tab.CtrlSnapshot(), ref.CtrlSnapshot(); !slices.Equal(got, want) {
				t.Fatalf("round %d, %s: ctrl %x, serial rebuild %x", round, stage, got, want)
			}
		}
		race(orders, func(k uint64) { tab.Insert(k) })
		canonical("after inserts")
		// Each goroutine deletes a random half of the pool in its own
		// order: the subsets overlap, so most keys see several concurrent
		// deletes.
		drops := make([][]uint64, goroutines)
		for g, o := range orders {
			for _, k := range o {
				if rng.Intn(2) == 0 {
					drops[g] = append(drops[g], k)
				}
			}
		}
		race(drops, func(k uint64) { tab.Delete(k) })
		for _, d := range drops {
			for _, k := range d {
				delete(seen, k)
			}
		}
		canonical("after deletes")
	}
}
