package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

// scanTable is the quiescent-scan surface every uint64 layout shares.
type scanTable interface {
	TryInsert(v uint64) (bool, error)
	Elements() []uint64
	ElementsInto(dst []uint64) int
	Count() int
	Size() int
	Snapshot() []uint64
}

// filterSnapshot is the sequential reference for the blocked scans: the
// non-empty cells of the raw layout, in layout order (shards
// concatenated in shard order).
func filterSnapshot(snap []uint64) []uint64 {
	var out []uint64
	for _, c := range snap {
		if c != Empty {
			out = append(out, c)
		}
	}
	return out
}

// TestElementsMatchFilteredSnapshot checks Elements, ElementsInto and
// Count of every uint64 layout against a sequential filter of
// Snapshot(), across worker counts (3 makes grains that do not divide
// the power-of-two tables, and block edges that split compact ctrl
// words), fill levels from empty to every cell full, and sizes from
// below one grain to many blocks. ShardStats is checked against the
// per-shard filter, and a short ElementsInto dst must panic.
func TestElementsMatchFilteredSnapshot(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(1))
	type kind struct {
		name string
		make func(size int) scanTable
		full bool // every cell can be filled (GrowTable grows first)
	}
	kinds := []kind{
		{"word", func(n int) scanTable { return NewWordTable[SetOps](n) }, true},
		{"compact", func(n int) scanTable { return NewCompactTable[SetOps](n) }, true},
		{"grow", func(n int) scanTable { return NewGrowTable[SetOps](n) }, false},
	}
	for _, shards := range []int{1, 2, 8, 16} {
		kinds = append(kinds, kind{fmt.Sprintf("sharded%d", shards), func(n int) scanTable { return NewShardedTable[SetOps](n, shards) }, true})
	}
	for _, p := range []int{1, 2, 3, 4} {
		parallel.SetNumWorkers(p)
		for _, k := range kinds {
			for _, size := range []int{64, 300, 1 << 12, 1 << 15} {
				for _, fill := range []string{"empty", "partial", "full"} {
					// Filling the last cells of a linear-probing table
					// sweeps long clusters; keep the full case small.
					if fill == "full" && (!k.full || size > 1<<12) {
						continue
					}
					name := fmt.Sprintf("p=%d/%s/size=%d/%s", p, k.name, size, fill)
					tab := k.make(size)
					fillTable(t, name, tab, fill)
					checkScans(t, name, tab)
					if sh, ok := tab.(*ShardedTable[SetOps]); ok {
						checkShardStats(t, name, sh)
					}
				}
			}
		}
	}
}

// fillTable inserts distinct keys: none, ~60% of the capacity, or until
// every cell is occupied (a shard that fills first rejects its keys
// with ErrFull while the others keep taking theirs).
func fillTable(t *testing.T, name string, tab scanTable, fill string) {
	t.Helper()
	switch fill {
	case "partial":
		n := tab.Size() * 6 / 10
		for i := 0; i < n; i++ {
			// A small shard can overflow before the average load
			// reaches 60%; its keys are rejected, the rest stored.
			if _, err := tab.TryInsert(hashx.At(7, i) | 1); err != nil && !errors.Is(err, ErrFull) {
				t.Fatalf("%s: TryInsert: %v", name, err)
			}
		}
	case "full":
		for i := 0; tab.Count() < tab.Size(); i += tab.Size() {
			for j := i; j < i+tab.Size(); j++ {
				_, _ = tab.TryInsert(hashx.At(11, j) | 1) // ErrFull from a full shard is expected
			}
		}
	}
}

func checkScans(t *testing.T, name string, tab scanTable) {
	t.Helper()
	want := filterSnapshot(tab.Snapshot())
	if got := tab.Count(); got != len(want) {
		t.Fatalf("%s: Count = %d, want %d", name, got, len(want))
	}
	if got := tab.Elements(); !slices.Equal(got, want) || got == nil {
		t.Fatalf("%s: Elements differs from the filtered snapshot (len %d, want %d)", name, len(got), len(want))
	}
	dst := make([]uint64, len(want)+5)
	for i := range dst {
		dst[i] = 0xdead
	}
	if n := tab.ElementsInto(dst); n != len(want) || !slices.Equal(dst[:n], want) {
		t.Fatalf("%s: ElementsInto packed %d, want %d, or in the wrong order", name, n, len(want))
	}
	for _, c := range dst[len(want):] {
		if c != 0xdead {
			t.Fatalf("%s: ElementsInto wrote past the packed length", name)
		}
	}
	if len(want) == 0 {
		return
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: ElementsInto with a short dst did not panic", name)
			}
		}()
		tab.ElementsInto(make([]uint64, len(want)-1, len(want)))
	}()
}

func checkShardStats(t *testing.T, name string, sh *ShardedTable[SetOps]) {
	t.Helper()
	st := sh.ShardStats()
	snap := sh.Snapshot()
	per := sh.ShardSize()
	total := 0
	for s := 0; s < sh.NumShards(); s++ {
		want := len(filterSnapshot(snap[s*per : (s+1)*per]))
		if st.Counts[s] != want {
			t.Fatalf("%s: ShardStats.Counts[%d] = %d, want %d", name, s, st.Counts[s], want)
		}
		total += want
	}
	if st.Total != total || st.Shards != sh.NumShards() {
		t.Fatalf("%s: ShardStats = %+v, want total %d over %d shards", name, st, total, sh.NumShards())
	}
}
