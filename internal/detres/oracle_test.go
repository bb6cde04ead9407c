package detres

import (
	"strings"
	"sync/atomic"
	"testing"

	"phasehash/internal/chaos"
	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
	"phasehash/internal/sequence"
)

// testOracleConfig shrinks the CI grid under -short so the oracle stays
// a quick gate in the ordinary test run; the full grid (six
// distributions × 8 seeds × 4 worker counts × 5 profiles) is what the
// `-tags chaos` CI job executes.
func testOracleConfig(t *testing.T) OracleConfig {
	cfg := DefaultOracleConfig(1 << 10)
	if testing.Short() {
		cfg.Dists = []sequence.Distribution{sequence.RandomInt, sequence.ExptInt}
		cfg.Seeds = cfg.Seeds[:2]
	}
	return cfg
}

func TestOracleWorkloads(t *testing.T) {
	for _, d := range sequence.AllDistributions {
		elems := OracleWorkload(d, 500, 7)
		if len(elems) != 500 {
			t.Fatalf("%s: got %d elements", d, len(elems))
		}
		for i, e := range elems {
			if e == 0 {
				t.Fatalf("%s: element %d is the reserved empty key", d, i)
			}
		}
	}
}

func TestOracleGridWord(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(WordRunner{Capacity: 4 * cfg.N}, cfg); d != nil {
		t.Fatal(d)
	}
}

func TestOracleGridGrow(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(GrowRunner{Initial: 64}, cfg); d != nil {
		t.Fatal(d)
	}
}

func TestOracleGridWordBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(WordBulkRunner{Capacity: 4 * cfg.N}, cfg); d != nil {
		t.Fatal(d)
	}
}

func TestOracleGridGrowBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(GrowBulkRunner{Initial: 64}, cfg); d != nil {
		t.Fatal(d)
	}
}

// The bulk kernels must be observationally identical to the per-element
// path: every bulk grid cell byte-compared against the per-element
// reference cell (Elements, raw layout, Count). Runs under -tags chaos
// too, where the staging/probe hot paths are fault-injected.
func TestOracleCrossPathWordBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunCrossOracle(WordRunner{Capacity: 4 * cfg.N}, WordBulkRunner{Capacity: 4 * cfg.N}, cfg); d != nil {
		t.Fatal(d)
	}
}

func TestOracleCrossPathGrowBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunCrossOracle(GrowRunner{Initial: 64}, GrowBulkRunner{Initial: 64}, cfg); d != nil {
		t.Fatal(d)
	}
}

// A growing table's insert results are exact: on every cell of the
// seed × worker × chaos grid, the per-element and bulk insert phases
// report exactly the workload's distinct keys as added.
func TestOracleGrowAddedIsDistinctCount(t *testing.T) {
	cfg := testOracleConfig(t)
	prev := parallel.SetNumWorkers(0)
	defer func() {
		parallel.SetNumWorkers(prev)
		chaos.Disable()
	}()
	for _, r := range []Runner{GrowRunner{Initial: 64}, GrowBulkRunner{Initial: 64}} {
		for _, dist := range cfg.Dists {
			for _, seed := range cfg.Seeds {
				elems := OracleWorkload(dist, cfg.N, seed)
				distinct := map[uint64]bool{}
				for _, e := range elems {
					distinct[e] = true
				}
				for _, prof := range cfg.Profiles {
					for _, w := range cfg.Workers {
						if got := runCell(r, elems, w, prof, seed).Added; got != len(distinct) {
							t.Fatalf("%s/%s/seed=%d workers=%d profile=%s: insert results sum to %d, want %d distinct keys",
								r.Name(), dist, seed, w, prof.Name, got, len(distinct))
						}
					}
				}
			}
		}
	}
}

func TestOracleGridSharded(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(ShardedRunner{Capacity: 4 * cfg.N, Shards: 8}, cfg); d != nil {
		t.Fatal(d)
	}
}

func TestOracleGridShardedBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	if d := RunOracle(ShardedBulkRunner{Capacity: 4 * cfg.N, Shards: 8}, cfg); d != nil {
		t.Fatal(d)
	}
}

// The sharded owner-computes kernels must leave byte-identical shard
// layouts to the per-element atomic path on the same shard count —
// the serial plain-store replay is substitutable for the CAS loops
// precisely because the layout is history-independent. Runs under
// -tags chaos too (the per-element reference path is fault-injected;
// the serial kernels have no CAS to perturb).
func TestOracleCrossPathShardedBulk(t *testing.T) {
	cfg := testOracleConfig(t)
	a := ShardedRunner{Capacity: 4 * cfg.N, Shards: 8}
	b := ShardedBulkRunner{Capacity: 4 * cfg.N, Shards: 8}
	if d := RunCrossOracle(a, b, cfg); d != nil {
		t.Fatal(d)
	}
}

// The sharded table stores elements in a different (still
// deterministic) order than the flat table, so the flat-vs-sharded
// relation is multiset equality of Elements plus equal Count — checked
// for the bulk kernels across the whole grid.
func TestOracleShardedMatchesFlatMultiset(t *testing.T) {
	cfg := testOracleConfig(t)
	a := WordRunner{Capacity: 4 * cfg.N}
	b := ShardedBulkRunner{Capacity: 4 * cfg.N, Shards: 8}
	if d := RunMultisetOracle(a, b, cfg); d != nil {
		t.Fatal(d)
	}
}

// ndTable is a deliberately broken table: linear probing that claims
// the first empty cell with no displacement ordering (the classic
// history-*dependent* layout). The oracle must catch it: its quiescent
// layout depends on insertion arrival order, which the grid varies via
// worker counts and fault profiles.
type ndTable struct{ cells []uint64 }

func (t *ndTable) insert(e uint64) {
	m := len(t.cells)
	for p := int(hashx.Mix64(e)) & (m - 1); ; p++ {
		i := p & (m - 1)
		c := atomic.LoadUint64(&t.cells[i])
		if c == e {
			return
		}
		if c == 0 {
			if atomic.CompareAndSwapUint64(&t.cells[i], 0, e) {
				return
			}
			p-- // re-read the contested cell
		}
	}
}

type ndRunner struct{ capacity int }

func (r ndRunner) Name() string { return "nd" }

func (r ndRunner) Run(elems []uint64, workers int) OracleResult {
	t := &ndTable{cells: make([]uint64, r.capacity)}
	replayPhases(len(elems), workers,
		func(i int) { t.insert(elems[i]) },
		func(i int) {}) // no delete phase: insertion order alone breaks it
	layout := make([]uint64, len(t.cells))
	copy(layout, t.cells)
	var packed []uint64
	n := 0
	for _, c := range layout {
		if c != 0 {
			packed = append(packed, c)
			n++
		}
	}
	return OracleResult{Elements: packed, Layout: layout, Count: n}
}

func TestOracleCatchesBrokenDisplacementOrder(t *testing.T) {
	cfg := OracleConfig{
		Dists:    []sequence.Distribution{sequence.RandomInt},
		N:        512,
		Seeds:    []uint64{1, 2, 3, 5, 8, 13, 21, 34},
		Workers:  []int{1, 2, 4, 8},
		Profiles: chaos.Profiles,
	}
	d := RunOracle(ndRunner{capacity: 1024}, cfg)
	if d == nil {
		t.Fatal("oracle failed to catch a history-dependent table across the grid")
	}
	msg := d.Error()
	for _, want := range []string{"seed=", "dist=randomSeq-int", "workers=", "profile=", "replay:"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("repro %q missing %q", msg, want)
		}
	}
	if d.MinN > d.N {
		t.Fatalf("minimized n %d exceeds original %d", d.MinN, d.N)
	}
	t.Logf("oracle repro: %s", msg)
}
