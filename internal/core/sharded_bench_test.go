package core

import (
	"fmt"
	"testing"

	"phasehash/internal/hashx"
)

// Sharded-vs-flat benchmarks over the same operation phases as
// bulk_bench_test.go: the flat rows there (InsertAll / FindAll /
// DeleteAll) are what these Sharded* rows are compared against, on two
// distributions — the uniform randomSeq-int
// keys of bulkBenchKeys and a duplicate-heavy draw (~64 copies per
// distinct key) where the flat kernels pile probes onto few hot homes.
// Shard count is pinned explicitly rather than left to DefaultShards.

const shardedBenchShards = 32

// dupBenchKeys draws bulkBenchN keys uniformly from a 2^17-key universe
// (~8 duplicates each), spread over the hash space by an odd-constant
// multiply so distinct keys stay distinct and nonzero. The universe is
// sized to overflow cache (2^17 distinct homes over a 32MB backing
// array) while every operation after the first per key is a duplicate.
func dupBenchKeys() []uint64 {
	keys := make([]uint64, bulkBenchN)
	for i := range keys {
		keys[i] = (hashx.At(7, i)%(1<<17))*0x9e3779b97f4a7c15 + 1
	}
	return keys
}

func BenchmarkShardedInsertAll(b *testing.B) {
	keys := bulkBenchKeys()
	t := NewShardedTable[SetOps](4*bulkBenchN, shardedBenchShards) // cleared per op, as in BenchmarkInsertAll
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t.Clear()
			b.StartTimer()
			t.InsertAll(keys)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "insert")
}

func BenchmarkShardedFindAll(b *testing.B) {
	keys := bulkBenchKeys()
	t := NewShardedTable[SetOps](4*bulkBenchN, shardedBenchShards)
	t.InsertAll(keys)
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t.FindAll(keys, nil)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "find")
}

func BenchmarkShardedDeleteAll(b *testing.B) {
	keys := bulkBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t := NewShardedTable[SetOps](4*bulkBenchN, shardedBenchShards)
			t.InsertAll(keys)
			b.StartTimer()
			t.DeleteAll(keys)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "delete")
}

func BenchmarkInsertAllDup(b *testing.B) {
	keys := dupBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t := NewWordTable[SetOps](4 * bulkBenchN)
			t.InsertAll(keys)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "insert")
}

func BenchmarkShardedInsertAllDup(b *testing.B) {
	keys := dupBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t := NewShardedTable[SetOps](4*bulkBenchN, shardedBenchShards)
			t.InsertAll(keys)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "insert")
}

func BenchmarkDeleteAllDup(b *testing.B) {
	keys := dupBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t := NewWordTable[SetOps](4 * bulkBenchN)
			t.InsertAll(keys)
			b.StartTimer()
			t.DeleteAll(keys)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "delete")
}

func BenchmarkShardedDeleteAllDup(b *testing.B) {
	keys := dupBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t := NewShardedTable[SetOps](4*bulkBenchN, shardedBenchShards)
			t.InsertAll(keys)
			b.StartTimer()
			t.DeleteAll(keys)
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "delete")
}

// BenchmarkShardedSmallEpoch is the per-layer cost of one small epoch
// on the epoch server's default table, NewShardedTable(1<<20, 0): the
// InsertAll, FindAll (into a result slice) and DeleteAll an epoch of n
// mixed ops makes, here all over the same n keys. Epochs this small
// are what a live server flushes at low request rates, where every key
// count stays at or below parallel.MinGrain and the calls run inline.
// ns/op is per epoch.
func BenchmarkShardedSmallEpoch(b *testing.B) {
	t := NewShardedTable[SetOps](1<<20, 0)
	for _, n := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
			}
			dst := make([]uint64, n)
			withBenchWorkers(b, func() {
				b.ResetTimer()
				for range b.N {
					t.InsertAll(keys)
					t.FindAll(keys, dst)
					t.DeleteAll(keys)
				}
			})
		})
	}
}
