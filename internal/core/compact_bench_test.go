package core

import (
	"sync"
	"testing"
)

// Compact-vs-flat benchmarks, in two regimes:
//
//   - The *resident* regime (compactBenchCells = 2^20): every array —
//     flat cells (8 MB), compact ctrl (1 MB) + cells (8 MB), the key
//     streams — fits this machine's L3, so the comparison is pure
//     compute: probe-loop instructions and load latencies out of
//     cache. The compact table's hash-keyed priority exit resolves a
//     uniform miss in ~1 ctrl word with no cell load, where the flat
//     probe walks ~2-3 cells to its own priority exit — the compact
//     miss rows win even with everything cached.
//
//   - The *overflow* regime (compactMissCells = 2^26): the stored set
//     is 60.4M elements at load 0.9, so the flat cell array (512 MB)
//     overflows L3 (260 MB on this machine) while the compact ctrl
//     array (64 MB) stays resident, probed by a 4M-key miss stream —
//     the footprint side of the argument: the 1-byte-per-slot scan
//     keeps its working set cached when the 8-byte-per-slot probe
//     cannot. BenchmarkCompactFindAllMiss is judged against
//     BenchmarkFindAllMiss (equal cell count, equal load: the pure
//     probe-policy-and-footprint comparison).
//
// Every row reports bytes/elem — backing-array bytes over *stored*
// elements — so each run carries the memory side of the trade next to
// the throughput side. The overflow-regime tables are built
// once per test process (they are read-only under find) and shared
// across -count/-cpu runs; a fresh `go test -bench` process rebuilds
// them from scratch.

const (
	// Resident regime: compact tables at load factor 0.9.
	compactBenchCells = 1 << 20
	compactBenchN     = compactBenchCells * 9 / 10

	// Overflow regime: stored set and cell counts sized past L3 for
	// the flat table, probed with a smaller uniform miss stream.
	compactMissCells  = 1 << 26
	compactMissN      = compactMissCells * 9 / 10
	compactMissProbes = 1 << 22
)

func affineKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return keys
}

// affineMisses returns n keys disjoint from any affineKeys result of any
// length (+2 vs +1 offsets of an odd-multiplier affine sequence);
// builders assert the disjointness against each built table.
func affineMisses(n int) []uint64 {
	miss := make([]uint64, n)
	for i := range miss {
		miss[i] = uint64(i)*0x9e3779b97f4a7c15 + 2
	}
	return miss
}

func compactBenchKeys() []uint64   { return affineKeys(compactBenchN) }
func compactBenchMisses() []uint64 { return affineMisses(compactBenchN) }

func reportBytesPerElem(b *testing.B, bytes, stored int) {
	b.ReportMetric(float64(bytes)/float64(stored), "bytes/elem")
}

// missFixtures holds the overflow-regime fixtures: three read-only
// tables over the same 60.4M-element stored set — compact at load 0.9,
// flat at the same cell count (load 0.9), and flat at the repo's
// standard 4x-cells-per-key benchmark sizing (load ~0.22) — plus the
// probe stream. Built lazily, once per process.
type missFixtures struct {
	miss    []uint64
	compact *CompactTable[SetOps]
	flat    *WordTable[SetOps]
	lowLoad *WordTable[SetOps]
}

var (
	missLabOnce sync.Once
	missLabData missFixtures
)

func missLab() *missFixtures {
	l := &missLabData
	missLabOnce.Do(func() {
		keys := affineKeys(compactMissN)
		l.miss = affineMisses(compactMissProbes)
		l.compact = NewCompactTable[SetOps](compactMissCells)
		l.compact.InsertAll(keys)
		l.flat = NewWordTable[SetOps](compactMissCells)
		l.flat.InsertAll(keys)
		l.lowLoad = NewWordTable[SetOps](4 * compactMissN)
		l.lowLoad.InsertAll(keys)
		if n := l.compact.ContainsAll(l.miss); n != 0 {
			panic("compact miss keys are not disjoint")
		}
		if n := l.flat.ContainsAll(l.miss); n != 0 {
			panic("flat miss keys are not disjoint")
		}
		if n := l.lowLoad.ContainsAll(l.miss); n != 0 {
			panic("low-load miss keys are not disjoint")
		}
	})
	return l
}

func BenchmarkCompactInsertAll(b *testing.B) {
	keys := compactBenchKeys()
	var bytes int
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t := NewCompactTable[SetOps](compactBenchCells)
			t.InsertAll(keys)
			bytes = t.Bytes()
		}
	})
	b.ReportMetric(float64(compactBenchN), "elems/op")
	reportBytesPerElem(b, bytes, compactBenchN)
	benchObsReport(b, "insert")
}

func BenchmarkCompactFindAll(b *testing.B) {
	keys := compactBenchKeys()
	t := NewCompactTable[SetOps](compactBenchCells)
	t.InsertAll(keys)
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t.FindAll(keys, nil)
		}
	})
	b.ReportMetric(float64(compactBenchN), "elems/op")
	reportBytesPerElem(b, t.Bytes(), compactBenchN)
	benchObsReport(b, "find")
}

// BenchmarkCompactFindAllMissResident / BenchmarkFindAllMissResident:
// uniform misses in the resident regime at equal cell count (load 0.9
// for both) — the pair behind the ISSUE's >= 1.3x miss criterion.
// Both priority exits are in play; the compact one fires from the ctrl
// word (~1 word load) where the flat one needs ~2-3 cell loads.
func BenchmarkCompactFindAllMissResident(b *testing.B) {
	keys, miss := compactBenchKeys(), compactBenchMisses()
	t := NewCompactTable[SetOps](compactBenchCells)
	t.InsertAll(keys)
	if n := t.ContainsAll(miss); n != 0 {
		b.Fatalf("miss keys are not disjoint: %d present", n)
	}
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t.FindAll(miss, nil)
		}
	})
	b.ReportMetric(float64(compactBenchN), "elems/op")
	reportBytesPerElem(b, t.Bytes(), compactBenchN)
	benchObsReport(b, "find")
}

func BenchmarkFindAllMissResident(b *testing.B) {
	keys, miss := compactBenchKeys(), compactBenchMisses()
	t := NewWordTable[SetOps](compactBenchCells)
	t.InsertAll(keys)
	if n := t.ContainsAll(miss); n != 0 {
		b.Fatalf("miss keys are not disjoint: %d present", n)
	}
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t.FindAll(miss, nil)
		}
	})
	b.ReportMetric(float64(compactBenchN), "elems/op")
	reportBytesPerElem(b, t.Bytes(), compactBenchN)
	benchObsReport(b, "find")
}

// BenchmarkCompactFindAllMiss is the overflow-regime miss row: 4M
// uniform misses against the 60.4M-element compact table whose ctrl
// array (64 MB) is L3-resident. Judged against BenchmarkFindAllMiss.
func BenchmarkCompactFindAllMiss(b *testing.B) {
	l := missLab()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			l.compact.FindAll(l.miss, nil)
		}
	})
	b.ReportMetric(float64(compactMissProbes), "elems/op")
	reportBytesPerElem(b, l.compact.Bytes(), compactMissN)
	benchObsReport(b, "find")
}

// BenchmarkFindAllMiss is the flat baseline for
// BenchmarkCompactFindAllMiss at the SAME cell count and load (0.9):
// identical clusters, identical verdicts; the flat cell array (512 MB)
// overflows L3, so every probe pays a memory access the compact scan
// usually doesn't.
func BenchmarkFindAllMiss(b *testing.B) {
	l := missLab()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			l.flat.FindAll(l.miss, nil)
		}
	})
	b.ReportMetric(float64(compactMissProbes), "elems/op")
	reportBytesPerElem(b, l.flat.Bytes(), compactMissN)
	benchObsReport(b, "find")
}

// BenchmarkFindAllMissLowLoad is the flat table at its standard
// 4x-cells-per-key benchmark sizing (load ~0.22) on the same misses:
// the flat table's best case — one-or-two-slot probes — bought with
// 3.6x the compact table's memory (a 2 GB cell array here; see
// EXPERIMENTS.md, "Compact fingerprint-probed table").
func BenchmarkFindAllMissLowLoad(b *testing.B) {
	l := missLab()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			l.lowLoad.FindAll(l.miss, nil)
		}
	})
	b.ReportMetric(float64(compactMissProbes), "elems/op")
	reportBytesPerElem(b, l.lowLoad.Bytes(), compactMissN)
	benchObsReport(b, "find")
}

func BenchmarkCompactDeleteAll(b *testing.B) {
	keys := compactBenchKeys()
	var bytes int
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t := NewCompactTable[SetOps](compactBenchCells)
			t.InsertAll(keys)
			b.StartTimer()
			t.DeleteAll(keys)
			bytes = t.Bytes()
		}
	})
	b.ReportMetric(float64(compactBenchN), "elems/op")
	reportBytesPerElem(b, bytes, compactBenchN)
	benchObsReport(b, "delete")
}
