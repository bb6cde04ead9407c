package core

import (
	"sync"
	"testing"
)

// Quiescent-scan benchmarks: Elements and Count over 2^25 cells at load
// 1/2, flat (one WordTable) and sharded (8 shards of 2^22 cells), the
// sizes where the scans are memory-bound. Each reports ns/elem — time
// per stored element — next to the standard ns/op. The tables are built
// once per process (~3 s, ~512 MB for both) and shared by the four
// benchmarks; run them with -run xxx -bench 'Elements|Count'.

const (
	scanBenchCells  = 1 << 25
	scanBenchShards = 8
)

// scanSink keeps the measured calls' results live.
var scanSink int

var scanBench struct {
	once    sync.Once
	flat    *WordTable[SetOps]
	sharded *ShardedTable[SetOps]
}

func scanBenchTables() (*WordTable[SetOps], *ShardedTable[SetOps]) {
	scanBench.once.Do(func() {
		scanBench.flat = NewWordTable[SetOps](scanBenchCells)
		scanBench.sharded = NewShardedTable[SetOps](scanBenchCells, scanBenchShards)
		keys := make([]uint64, bulkBenchN)
		for base := 0; base < scanBenchCells/2; base += len(keys) {
			for i := range keys {
				keys[i] = uint64(base+i)*0x9e3779b97f4a7c15 + 1
			}
			scanBench.flat.InsertAll(keys)
			scanBench.sharded.InsertAll(keys)
		}
	})
	return scanBench.flat, scanBench.sharded
}

func reportNsPerElem(b *testing.B, stored int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(stored), "ns/elem")
}

func BenchmarkElementsFlat(b *testing.B) {
	t, _ := scanBenchTables()
	n := t.Count()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanSink += len(t.Elements())
		}
	})
	reportNsPerElem(b, n)
}

func BenchmarkCountFlat(b *testing.B) {
	t, _ := scanBenchTables()
	n := t.Count()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanSink += t.Count()
		}
	})
	reportNsPerElem(b, n)
}

func BenchmarkElementsSharded(b *testing.B) {
	_, t := scanBenchTables()
	n := t.Count()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanSink += len(t.Elements())
		}
	})
	reportNsPerElem(b, n)
}

func BenchmarkCountSharded(b *testing.B) {
	_, t := scanBenchTables()
	n := t.Count()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanSink += t.Count()
		}
	})
	reportNsPerElem(b, n)
}
