package tables

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"phasehash/internal/core"
	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

func keysFor(n int, dupFactor int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashx.At(seed, i)%uint64(n*dupFactor/4+1) + 1
	}
	return keys
}

func distinct(keys []uint64) map[uint64]bool {
	m := map[uint64]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// forEachKind runs f for every table kind.
func forEachKind(t *testing.T, f func(t *testing.T, kind Kind)) {
	t.Helper()
	for _, kind := range Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) { f(t, kind) })
	}
}

func TestAllKindsBasicOps(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		tab := MustNew[core.SetOps](kind, 128)
		keys := []uint64{3, 17, 99, 12345, 7}
		for _, k := range keys {
			if !tab.Insert(k) {
				t.Errorf("Insert(%d): want new-element", k)
			}
		}
		if tab.Insert(17) {
			t.Error("duplicate Insert(17) reported growth")
		}
		if got := tab.Count(); got != len(keys) {
			t.Errorf("Count = %d, want %d", got, len(keys))
		}
		for _, k := range keys {
			if e, ok := tab.Find(k); !ok || e != k {
				t.Errorf("Find(%d) = (%d,%v), want (%d,true)", k, e, ok, k)
			}
		}
		if _, ok := tab.Find(4); ok {
			t.Error("Find(4) found absent key")
		}
		if !tab.Delete(99) {
			t.Error("Delete(99) failed")
		}
		if tab.Delete(99) {
			t.Error("second Delete(99) succeeded")
		}
		if tab.Delete(4) {
			t.Error("Delete(4) of absent key succeeded")
		}
		if _, ok := tab.Find(99); ok {
			t.Error("99 still found after delete")
		}
		got := tab.Elements()
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := []uint64{3, 7, 17, 12345}
		if len(got) != len(want) {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Elements = %v, want %v", got, want)
			}
		}
	})
}

// TestAllKindsSetSemanticsSerialBulk fills one table per kind with
// per-element calls and a twin with the whole-phase calls (InsertAll,
// FindAll, DeleteAll): both must hold the distinct keys, and the phase
// calls must return the per-element counts and find results.
func TestAllKindsSetSemanticsSerialBulk(t *testing.T) {
	keys := keysFor(20000, 2, 1)
	want := distinct(keys)
	probes := append(keys[:5000:5000], keysFor(5000, 8, 9)...)
	// Distinct deletes: which of two concurrent deletes of one key
	// reports the removal, and whether both do, is up to the kind.
	var dels []uint64
	for k := range distinct(keys[:7000]) {
		dels = append(dels, k)
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		each, phase := MustNew[core.SetOps](kind, 1<<16), MustNew[core.SetOps](kind, 1<<16)
		added := 0
		for _, k := range keys {
			if each.Insert(k) {
				added++
			}
		}
		if got := InsertAll(phase, keys); got != added {
			t.Fatalf("InsertAll = %d, per-element inserts grew %d", got, added)
		}
		for name, tab := range map[string]Table{"per-element": each, "phase": phase} {
			if got := tab.Count(); got != len(want) {
				t.Fatalf("%s: Count = %d, want %d", name, got, len(want))
			}
			elems := tab.Elements()
			if len(elems) != len(want) {
				t.Fatalf("%s: len(Elements) = %d, want %d", name, len(elems), len(want))
			}
			for _, e := range elems {
				if !want[e] {
					t.Fatalf("%s: element %d never inserted", name, e)
				}
			}
			for k := range want {
				if !Contains(tab, k) {
					t.Fatalf("%s: key %d missing", name, k)
				}
			}
		}

		dst := make([]uint64, len(probes))
		hits, wantHits := FindAll(phase, probes, dst), 0
		for i, k := range probes {
			e, ok := each.Find(k)
			if ok {
				wantHits++
			} else {
				e = 0
			}
			if dst[i] != e {
				t.Fatalf("FindAll dst[%d] = %d, Find(%d) = %d", i, dst[i], k, e)
			}
		}
		if hits != wantHits || FindAll(phase, probes, nil) != wantHits {
			t.Fatalf("FindAll = %d, per-element finds hit %d", hits, wantHits)
		}

		removed := 0
		for _, k := range dels {
			if each.Delete(k) {
				removed++
			}
		}
		if got := DeleteAll(phase, dels); got != removed {
			t.Fatalf("DeleteAll = %d, per-element deletes removed %d", got, removed)
		}
		a, b := each.Elements(), phase.Elements()
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if len(a) != len(b) || phase.Count() != each.Count() {
			t.Fatalf("after deletes: %d phase elements (Count %d), %d per-element (Count %d)", len(b), phase.Count(), len(a), each.Count())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("after deletes: sets differ at %d: %d vs %d", i, b[i], a[i])
			}
		}
	})
}

func TestParallelKindsConcurrentInsertFind(t *testing.T) {
	keys := keysFor(40000, 2, 2)
	want := distinct(keys)
	for _, kind := range ParallelKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			tab := MustNew[core.SetOps](kind, 1<<17)
			parallel.ForGrain(len(keys), 1, func(i int) { tab.Insert(keys[i]) })
			if got := tab.Count(); got != len(want) {
				t.Fatalf("Count = %d, want %d distinct", got, len(want))
			}
			var misses atomic.Int64
			parallel.ForGrain(len(keys), 1, func(i int) {
				if !Contains(tab, keys[i]) {
					misses.Add(1)
				}
			})
			if misses.Load() != 0 {
				t.Fatalf("%d inserted keys not found", misses.Load())
			}
			elems := tab.Elements()
			if len(elems) != len(want) {
				t.Fatalf("Elements len = %d, want %d", len(elems), len(want))
			}
		})
	}
}

func TestParallelKindsConcurrentDelete(t *testing.T) {
	keys := keysFor(30000, 2, 3)
	want := distinct(keys)
	var dels []uint64
	i := 0
	for k := range want {
		if i%2 == 0 {
			dels = append(dels, k)
		}
		i++
	}
	for _, kind := range ParallelKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			tab := MustNew[core.SetOps](kind, 1<<16)
			parallel.ForGrain(len(keys), 1, func(i int) { tab.Insert(keys[i]) })
			parallel.ForGrain(len(dels), 1, func(i int) { tab.Delete(dels[i]) })
			wantLeft := len(want) - len(dels)
			if got := tab.Count(); got != wantLeft {
				t.Fatalf("Count = %d after deletes, want %d", got, wantLeft)
			}
			for _, k := range dels {
				if Contains(tab, k) {
					t.Fatalf("deleted key %d still present", k)
				}
			}
			deleted := map[uint64]bool{}
			for _, k := range dels {
				deleted[k] = true
			}
			for k := range want {
				if !deleted[k] && !Contains(tab, k) {
					t.Fatalf("surviving key %d lost", k)
				}
			}
		})
	}
}

// TestHighDuplicateContention mimics the trigram/exponential inputs: many
// threads inserting a tiny key universe (the case that melts lock-based
// tables and that chainedHash-CR exists to fix).
func TestHighDuplicateContention(t *testing.T) {
	n := 20000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashx.At(8, i)%37 + 1 // only 37 distinct keys
	}
	for _, kind := range ParallelKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			tab := MustNew[core.SetOps](kind, 1<<12)
			parallel.ForGrain(n, 1, func(i int) { tab.Insert(keys[i]) })
			if got := tab.Count(); got != 37 {
				t.Fatalf("Count = %d, want 37", got)
			}
		})
	}
}

func TestPairMergeAcrossKinds(t *testing.T) {
	// Sum-combine 1000 increments of the same key, concurrently.
	n := 1000
	forEachKind(t, func(t *testing.T, kind Kind) {
		tab := MustNew[core.PairSumOps](kind, 256)
		if kind.IsSerial() {
			for i := 0; i < n; i++ {
				tab.Insert(core.Pair(5, 1))
			}
		} else {
			parallel.ForGrain(n, 1, func(int) { tab.Insert(core.Pair(5, 1)) })
		}
		e, ok := tab.Find(core.Pair(5, 0))
		if !ok {
			t.Fatal("key 5 missing")
		}
		if got := core.PairValue(e); got != uint32(n) {
			t.Fatalf("summed value = %d, want %d", got, n)
		}
	})
}

// TestSerialHIMatchesLinearD: the parallel deterministic table must
// reproduce the sequential history-independent layout exactly.
func TestSerialHIMatchesLinearD(t *testing.T) {
	keys := keysFor(30000, 2, 4)
	hi := NewSerialHITable[core.SetOps](1 << 16)
	for _, k := range keys {
		hi.Insert(k)
	}
	par := core.NewWordTable[core.SetOps](1 << 16)
	parallel.ForGrain(len(keys), 1, func(i int) { par.Insert(keys[i]) })
	a, b := hi.Snapshot(), par.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layouts differ at cell %d: serial %#x, parallel %#x", i, a[i], b[i])
		}
	}
	// And after deleting half the keys through each path.
	var dels []uint64
	for k := range distinct(keys) {
		if k%2 == 0 {
			dels = append(dels, k)
		}
	}
	for _, k := range dels {
		hi.Delete(k)
	}
	parallel.ForGrain(len(dels), 1, func(i int) { par.Delete(dels[i]) })
	a, b = hi.Snapshot(), par.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-delete layouts differ at cell %d", i)
		}
	}
}

// TestQuickAllKinds property-tests set semantics for every kind on
// arbitrary small inputs.
func TestQuickAllKinds(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		f := func(raw []uint16) bool {
			keys := make([]uint64, len(raw))
			for i, r := range raw {
				keys[i] = uint64(r) + 1
			}
			tab := MustNew[core.SetOps](kind, 4*len(keys)+16)
			for _, k := range keys {
				tab.Insert(k)
			}
			want := distinct(keys)
			if tab.Count() != len(want) {
				return false
			}
			for k := range want {
				if !Contains(tab, k) {
					return false
				}
			}
			// Delete everything; table must end empty.
			for k := range want {
				if !tab.Delete(k) {
					return false
				}
			}
			return tab.Count() == 0 && len(tab.Elements()) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// TestHopscotchDisplacement forces long probe runs so inserts must
// displace (regression test for the hop-backward path).
func TestHopscotchDisplacement(t *testing.T) {
	for _, withTS := range []bool{true, false} {
		tab := NewHopscotch[core.SetOps](1<<10, withTS)
		// Fill to 80% load, which cannot fit everything within hopRange
		// of its home without displacements.
		n := 800
		keys := keysFor(4*n, 1, 6)[:n]
		parallel.ForGrain(n, 1, func(i int) { tab.Insert(keys[i]) })
		want := distinct(keys)
		if tab.Count() != len(want) {
			t.Fatalf("withTS=%v: Count = %d, want %d", withTS, tab.Count(), len(want))
		}
		for k := range want {
			if !Contains(tab, k) {
				t.Fatalf("withTS=%v: key %d lost after displacement", withTS, k)
			}
		}
	}
}

// TestCuckooEvictionChains fills a cuckoo table to a load that requires
// multi-step eviction chains.
func TestCuckooEvictionChains(t *testing.T) {
	tab := NewCuckoo[core.SetOps](1 << 10)
	n := 400 // ~40% load: evictions happen but no cycles
	keys := keysFor(4*n, 1, 9)[:n]
	parallel.ForGrain(n, 1, func(i int) { tab.Insert(keys[i]) })
	want := distinct(keys)
	if tab.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", tab.Count(), len(want))
	}
	for k := range want {
		if !Contains(tab, k) {
			t.Fatalf("key %d lost after eviction", k)
		}
	}
}

// TestChainedElementsOrderStableForFixedLayout: Elements on a quiescent
// chained table returns every element exactly once.
func TestChainedElementsComplete(t *testing.T) {
	for _, cr := range []bool{false, true} {
		tab := NewChained[core.SetOps](1<<10, cr)
		keys := keysFor(5000, 2, 10)
		parallel.ForGrain(len(keys), 1, func(i int) { tab.Insert(keys[i]) })
		want := distinct(keys)
		elems := tab.Elements()
		if len(elems) != len(want) {
			t.Fatalf("cr=%v: Elements len %d, want %d", cr, len(elems), len(want))
		}
		seen := map[uint64]bool{}
		for _, e := range elems {
			if seen[e] {
				t.Fatalf("cr=%v: duplicate element %d", cr, e)
			}
			seen[e] = true
		}
	}
}
