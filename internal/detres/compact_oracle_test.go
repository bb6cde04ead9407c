package detres

import (
	"sort"
	"testing"

	"phasehash/internal/core"
	"phasehash/internal/sequence"
)

func TestOracleGridCompact(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(CompactRunner{Capacity: 4 * cfg.N}, cfg); d != nil {
		t.Fatal(d)
	}
}

func TestOracleGridCompactBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(CompactBulkRunner{Capacity: 4 * cfg.N}, cfg); d != nil {
		t.Fatal(d)
	}
}

// The staged bulk kernels must be observationally identical to the
// per-element atomic path — including the ctrl words, which the bulk
// find stages and the per-element path never pre-touches.
func TestOracleCrossPathCompactBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	a := CompactRunner{Capacity: 4 * cfg.N}
	b := CompactBulkRunner{Capacity: 4 * cfg.N}
	if d := RunCrossOracle(a, b, cfg); d != nil {
		t.Fatal(d)
	}
}

// The compact table must store exactly the flat table's element set.
func TestOracleCompactMatchesFlatMultiset(t *testing.T) {
	cfg := testOracleConfig(t)
	a := WordRunner{Capacity: 4 * cfg.N}
	b := CompactBulkRunner{Capacity: 4 * cfg.N}
	if d := RunMultisetOracle(a, b, cfg); d != nil {
		t.Fatal(d)
	}
}

// CompactTable keys its displacement priority on the full hash, not
// WordTable's raw element order, so the two flat layouts deliberately
// differ cell-for-cell. The layout oracle is instead a canonical
// rebuild: inserting the quiescent element set into a fresh table —
// ascending key order, one goroutine, per-element path, a maximally
// different schedule from the grid's phased parallel replay with its
// deletes — must land in the byte-identical (cells, ctrl) pair, which
// is history independence stated directly.
func TestOracleCompactCanonicalRebuild(t *testing.T) {
	cfg := testOracleConfig(t)
	capacity := 4 * cfg.N
	for _, dist := range cfg.Dists {
		for _, seed := range cfg.Seeds {
			elems := OracleWorkload(dist, cfg.N, seed)
			got := CompactRunner{Capacity: capacity}.Run(elems, 4)
			sorted := append([]uint64(nil), got.Elements...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			ref := core.NewCompactTable[core.SetOps](capacity)
			for _, e := range sorted {
				ref.Insert(e)
			}
			refLayout := append(ref.Snapshot(), ref.CtrlSnapshot()...)
			if len(refLayout) != len(got.Layout) {
				t.Fatalf("%s seed %d: rebuild layout %d words, replay %d", dist, seed, len(refLayout), len(got.Layout))
			}
			for i, c := range refLayout {
				if got.Layout[i] != c {
					t.Fatalf("%s seed %d: quiescent layout word %d = %#x (replay) vs %#x (canonical rebuild)",
						dist, seed, i, got.Layout[i], c)
				}
			}
		}
	}
}

// A compile-time style guard that the six-distribution default grid is
// what the compact oracle rows above actually exercise when not -short.
func TestCompactOracleCoversAllDistributions(t *testing.T) {
	if testing.Short() {
		t.Skip("grid shrunk under -short")
	}
	cfg := testOracleConfig(t)
	if len(cfg.Dists) != len(sequence.AllDistributions) {
		t.Fatalf("grid covers %d distributions, want %d", len(cfg.Dists), len(sequence.AllDistributions))
	}
}
