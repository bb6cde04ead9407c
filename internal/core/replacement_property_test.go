package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"phasehash/internal/hashx"
)

// The replacement-scan property test drives findReplacement on all three
// layouts through clusters far longer than its downward memo (replMemo),
// at loads from 0.9 up to saturation, with random delete subsets and
// orders split across GOMAXPROCS goroutines (run it at -cpu 1,2,4).
// After every phase the table must satisfy its ordering invariant and
// hold exactly the layout a one-goroutine rebuild of the surviving set
// produces.

// replTable is one layout under test. Elements are named by their full
// hash h: the word layouts store h itself under IdentOps, the pointer
// layout stores a record whose key Mix64 maps to h.
type replTable interface {
	insert(h uint64)
	delete(h uint64) bool
	check() error
	layout() []uint64
	rebuild(hs []uint64) []uint64
}

type replWord struct{ t *WordTable[IdentOps] }

func (r replWord) insert(h uint64)      { r.t.Insert(h) }
func (r replWord) delete(h uint64) bool { return r.t.Delete(h) }
func (r replWord) check() error         { return r.t.CheckInvariant() }
func (r replWord) layout() []uint64     { return r.t.Snapshot() }
func (r replWord) rebuild(hs []uint64) []uint64 {
	ref := NewWordTable[IdentOps](r.t.Size())
	for _, h := range hs {
		ref.Insert(h)
	}
	return ref.Snapshot()
}

type replCompact struct{ t *CompactTable[IdentOps] }

func (r replCompact) insert(h uint64)      { r.t.Insert(h) }
func (r replCompact) delete(h uint64) bool { return r.t.Delete(h) }
func (r replCompact) check() error         { return r.t.CheckInvariant() }
func (r replCompact) layout() []uint64     { return append(r.t.Snapshot(), r.t.CtrlSnapshot()...) }
func (r replCompact) rebuild(hs []uint64) []uint64 {
	ref := NewCompactTable[IdentOps](r.t.Size())
	for _, h := range hs {
		ref.insertSerial(h)
	}
	return append(ref.Snapshot(), ref.CtrlSnapshot()...)
}

type replPtr struct{ t *PtrTable[rec, recOps] }

func ptrRec(h uint64) *rec             { return &rec{key: hashx.Unmix64(h)} }
func (r replPtr) insert(h uint64)      { r.t.Insert(ptrRec(h)) }
func (r replPtr) delete(h uint64) bool { return r.t.Delete(ptrRec(h)) }
func (r replPtr) check() error         { return r.t.CheckInvariant() }
func (r replPtr) layout() []uint64     { return ptrLayout(r.t) }
func (r replPtr) rebuild(hs []uint64) []uint64 {
	ref := NewPtrTable[rec, recOps](r.t.Size())
	for _, h := range hs {
		ref.Insert(ptrRec(h))
	}
	return ptrLayout(ref)
}

// ptrLayout maps each cell to its record's hash, or 0 for an empty one.
func ptrLayout(t *PtrTable[rec, recOps]) []uint64 {
	out := make([]uint64, t.Size())
	for i := range t.cells {
		if e := t.cells[i].Load(); e != nil {
			out[i] = hashx.Mix64(e.key)
		}
	}
	return out
}

// replHashes draws n distinct nonzero hashes for an m-cell table. With
// narrow set, every home falls in the first quarter of the table, so at
// load >= 0.9 one cluster covers most of the array and wraps; otherwise
// homes are uniform, which at these loads still gives clusters many
// times replMemo long.
func replHashes(rng *hashx.RNG, m, n int, narrow bool) []uint64 {
	span := m
	if narrow {
		span = m / 4
	}
	seen := make(map[uint64]bool, n)
	hs := make([]uint64, 0, n)
	for len(hs) < n {
		h := uint64(rng.Intn(span)) + uint64(m)*(1+rng.Next()>>16)
		if !seen[h] {
			seen[h] = true
			hs = append(hs, h)
		}
	}
	return hs
}

// forStrided runs fn(i) for every i in [0, n), split round-robin across
// GOMAXPROCS goroutines that start together.
func forStrided(n int, fn func(i int)) {
	g := runtime.GOMAXPROCS(0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < n; i += g {
				fn(i)
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

func TestReplacementScanBeyondMemo(t *testing.T) {
	const m = 256
	layouts := []struct {
		name string
		new  func() replTable
	}{
		{"word", func() replTable { return replWord{NewWordTable[IdentOps](m)} }},
		{"compact", func() replTable { return replCompact{NewCompactTable[IdentOps](m)} }},
		{"ptr", func() replTable { return replPtr{NewPtrTable[rec, recOps](m)} }},
	}
	for _, l := range layouts {
		for _, narrow := range []bool{true, false} {
			for _, n := range []int{m * 9 / 10, m * 19 / 20, m - 1, m} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/narrow=%v/n=%d/seed=%d", l.name, narrow, n, seed)
					t.Run(name, func(t *testing.T) {
						replScanProperty(t, l.new(), hashx.NewRNG(seed*1000+uint64(n)), m, n, narrow)
					})
				}
			}
		}
	}
}

func replScanProperty(t *testing.T, tab replTable, rng *hashx.RNG, m, n int, narrow bool) {
	hs := replHashes(rng, m, n, narrow)
	forStrided(len(hs), func(i int) { tab.insert(hs[i]) })
	live := slices.Clone(hs)
	sameAsRebuild := func(stage string) {
		t.Helper()
		if err := tab.check(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got, want := tab.layout(), tab.rebuild(live)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%s: word %d = %#x, sequential rebuild of the %d survivors has %#x", stage, i, got[i], len(live), want[i])
		}
	}
	sameAsRebuild("after inserts")
	for phase := 0; len(live) > 0; phase++ {
		// A random subset in a random order; the last phase empties the
		// table.
		for i := len(live) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			live[i], live[j] = live[j], live[i]
		}
		k := len(live)
		if phase < 3 {
			k = 1 + rng.Intn(len(live))
		}
		victims := live[:k]
		missed := make([]bool, k)
		forStrided(k, func(i int) { missed[i] = !tab.delete(victims[i]) })
		if i := slices.Index(missed, true); i >= 0 {
			t.Fatalf("phase %d: Delete(%#x) of a stored element reported false", phase, victims[i])
		}
		live = live[k:]
		sameAsRebuild(fmt.Sprintf("after delete phase %d", phase))
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
