package core

import (
	"sync/atomic"
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

func TestGrowTableSequentialGrowth(t *testing.T) {
	g := NewGrowTable[SetOps](8)
	n := 10000
	for k := uint64(1); k <= uint64(n); k++ {
		g.Insert(k)
	}
	if g.Size() < n {
		t.Fatalf("table did not grow: size %d for %d keys", g.Size(), n)
	}
	if got := g.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	for k := uint64(1); k <= uint64(n); k++ {
		if !g.Contains(k) {
			t.Fatalf("key %d lost during growth", k)
		}
	}
	if err := g.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowTableConcurrentInserts(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		g := NewGrowTable[SetOps](16)
		n := 50000
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = hashx.At(uint64(trial), i)%uint64(n) + 1
		}
		distinct := map[uint64]bool{}
		for _, k := range keys {
			distinct[k] = true
		}
		parallel.ForGrain(n, 1, func(i int) { g.Insert(keys[i]) })
		if got := g.Count(); got != len(distinct) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, got, len(distinct))
		}
		for k := range distinct {
			if !g.Contains(k) {
				t.Fatalf("trial %d: key %d lost", trial, k)
			}
		}
		if err := g.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGrowTableElementsDeterministicAfterDrain(t *testing.T) {
	build := func() []uint64 {
		g := NewGrowTable[SetOps](16)
		parallel.ForGrain(20000, 1, func(i int) {
			g.Insert(hashx.At(3, i)%40000 + 1)
		})
		return g.Elements()
	}
	ref := build()
	for trial := 0; trial < 4; trial++ {
		got := build()
		if len(got) != len(ref) {
			t.Fatalf("length %d vs %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: Elements differ at %d", trial, i)
			}
		}
	}
	// And it matches a fixed-size WordTable's layout for the same keys
	// and final size.
	g := NewGrowTable[SetOps](16)
	parallel.ForGrain(20000, 1, func(i int) { g.Insert(hashx.At(3, i)%40000 + 1) })
	w := NewWordTable[SetOps](g.Size())
	parallel.ForGrain(20000, 1, func(i int) { w.Insert(hashx.At(3, i)%40000 + 1) })
	a, b := g.Elements(), w.Elements()
	if len(a) != len(b) {
		t.Fatal("grow table contents differ from fixed table")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grow vs fixed layout differs at %d", i)
		}
	}
}

func TestGrowTableDelete(t *testing.T) {
	g := NewGrowTable[SetOps](8)
	for k := uint64(1); k <= 3000; k++ {
		g.Insert(k)
	}
	// Delete phase on the grown table.
	parallel.ForGrain(1500, 1, func(i int) {
		if !g.Delete(uint64(i)*2 + 2) { // even keys
			t.Errorf("Delete(%d) failed", i*2+2)
		}
	})
	if got := g.Count(); got != 1500 {
		t.Fatalf("Count = %d, want 1500", got)
	}
	for k := uint64(1); k <= 3000; k += 2 {
		if !g.Contains(k) {
			t.Fatalf("odd key %d lost", k)
		}
	}
	if err := g.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowTableMixedInsertsFromPoolWorkers mixes per-element Insert and
// InsertAll calls on pool workers across several doublings: the readers
// a doubling blocks are pool workers, and the occasional large InsertAll
// holds the read lock across its own pool dispatch. The phase must
// finish (the grower's rehash is a pool dispatch too, and a dispatcher
// runs every block no free worker takes), the insert results must sum
// to the distinct-key count, and the layout must match a sequential
// per-element replay of the same calls. Run it under -race too.
func TestGrowTableMixedInsertsFromPoolWorkers(t *testing.T) {
	prev := parallel.SetNumWorkers(4)
	defer parallel.SetNumWorkers(prev)
	const n, small, large = 1 << 14, 8, 1 << 10
	keys := make([]uint64, n)
	distinct := map[uint64]bool{}
	for i := range keys {
		keys[i] = hashx.At(5, i)%(n/2) + 1
		distinct[keys[i]] = true
	}
	// Call b inserts keys[b*small:] — small keys, or large keys (reaching
	// into later calls' keys) every 64th call.
	call := func(b int) []uint64 {
		if b%64 == 0 {
			return keys[b*small : min(b*small+large, n)]
		}
		return keys[b*small : (b+1)*small]
	}
	calls := n / small

	g := NewGrowTable[SetOps](minGrowSize)
	var added atomic.Int64
	parallel.ForGrain(calls, 1, func(b int) {
		if b%2 == 0 {
			added.Add(int64(g.InsertAll(call(b))))
			return
		}
		a := 0
		for _, k := range call(b) {
			if g.Insert(k) {
				a++
			}
		}
		added.Add(int64(a))
	})
	if got := int(added.Load()); got != len(distinct) {
		t.Fatalf("insert results sum to %d, want %d distinct keys", got, len(distinct))
	}
	if err := g.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	ref := NewGrowTable[SetOps](minGrowSize)
	for b := 0; b < calls; b++ {
		for _, k := range call(b) {
			ref.Insert(k)
		}
	}
	a, r := g.Snapshot(), ref.Snapshot()
	if len(a) != len(r) {
		t.Fatalf("final size %d, sequential replay %d", len(a), len(r))
	}
	for i := range a {
		if a[i] != r[i] {
			t.Fatalf("cell %d = %#x, sequential replay %#x", i, a[i], r[i])
		}
	}
}

// TestGrowRehashLayoutAcrossWorkers checks that the parallel rehash
// builds the history-independent layout: a table grown at 1, 2 and 4
// workers, by concurrent per-element inserts and then by bulk calls,
// holds cell for cell what a WordTable of its final size filled one key
// at a time holds.
func TestGrowRehashLayoutAcrossWorkers(t *testing.T) {
	const n, call = 1 << 16, 1 << 12
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashx.At(7, i)%(2*n) + 1
	}
	for _, p := range []int{1, 2, 4} {
		func() {
			defer parallel.SetNumWorkers(parallel.SetNumWorkers(p))
			g := NewGrowTable[SetOps](minGrowSize)
			parallel.ForGrain(n/2, 1, func(i int) { g.Insert(keys[i]) })
			for i := n / 2; i < n; i += call {
				g.InsertAll(keys[i : i+call])
			}
			w := NewWordTable[SetOps](g.Size())
			for _, k := range keys {
				w.Insert(k)
			}
			a, r := g.Snapshot(), w.Snapshot()
			for i := range a {
				if a[i] != r[i] {
					t.Fatalf("workers %d: cell %d = %#x, one-at-a-time WordTable %#x", p, i, a[i], r[i])
				}
			}
		}()
	}
}

// TestGrowTableCoreCountsGrowTraffic checks the always-on counter core
// sees each resize as grow traffic and exactly one insert op per call:
// rehash re-inserts never reach the insert counters.
func TestGrowTableCoreCountsGrowTraffic(t *testing.T) {
	if !obs.CoreEnabled {
		t.Skip("counter core compiled out (-tags nostats)")
	}
	const n = 1 << 12
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2654435761
	}
	before := obs.CoreSnapshot()
	g := NewGrowTable[SetOps](minGrowSize)
	g.InsertAll(keys[:n/2])
	for _, k := range keys[n/2:] {
		g.Insert(k)
	}
	d := obs.CoreSnapshot().Sub(before)
	if d.InsertOps != n {
		t.Fatalf("core insert ops %d, want %d", d.InsertOps, n)
	}
	if d.GrowEvents == 0 || d.GrowCellsMoved == 0 {
		t.Fatalf("core grow counters events=%d moved=%d, want both > 0", d.GrowEvents, d.GrowCellsMoved)
	}
}
