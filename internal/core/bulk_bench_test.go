package core

import (
	"runtime"
	"testing"

	"phasehash/internal/parallel"
)

// Before/after benchmarks for the bulk phase kernels: each pair runs
// the identical operation phase (randomSeq-int keys, load ~1/4) once
// through the per-element pattern — parallel.ForBlocked dispatching a
// closure per element — and once through the bulk kernel. The pairs are
// the numbers quoted in EXPERIMENTS.md ("Bulk phase kernels"); run
// with -cpu 1,N to get both worker counts. BenchmarkInsertAll is also
// the row `make tune-overhead` builds with and without -tags nostats.

const bulkBenchN = 1 << 20

func bulkBenchKeys() []uint64 {
	keys := make([]uint64, bulkBenchN)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return keys
}

// withBenchWorkers pins the library worker count to the benchmark's
// -cpu value for the duration of one benchmark function.
func withBenchWorkers(b *testing.B, f func()) {
	old := parallel.SetNumWorkers(runtime.GOMAXPROCS(0))
	defer parallel.SetNumWorkers(old)
	f()
}

func BenchmarkInsertPerElement(b *testing.B) {
	keys := bulkBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			t := NewWordTable[SetOps](4 * bulkBenchN)
			parallel.ForBlocked(len(keys), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					t.Insert(keys[j])
				}
			})
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "insert")
}

func BenchmarkInsertAll(b *testing.B) {
	keys := bulkBenchKeys()
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

func BenchmarkFindPerElement(b *testing.B) {
	keys := bulkBenchKeys()
	t := NewWordTable[SetOps](4 * bulkBenchN)
	t.InsertAll(keys)
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			parallel.ForBlocked(len(keys), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					t.Find(keys[j])
				}
			})
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "find")
}

func BenchmarkFindAll(b *testing.B) {
	keys := bulkBenchKeys()
	t := NewWordTable[SetOps](4 * bulkBenchN)
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

func BenchmarkDeletePerElement(b *testing.B) {
	keys := bulkBenchKeys()
	withBenchWorkers(b, func() {
		b.ResetTimer()
		benchObsReset()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t := NewWordTable[SetOps](4 * bulkBenchN)
			t.InsertAll(keys)
			b.StartTimer()
			parallel.ForBlocked(len(keys), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					t.Delete(keys[j])
				}
			})
		}
	})
	b.ReportMetric(float64(bulkBenchN), "elems/op")
	b.ReportMetric(float64(8*4*bulkBenchN)/float64(bulkBenchN), "bytes/elem")
	benchObsReport(b, "delete")
}

func BenchmarkDeleteAll(b *testing.B) {
	keys := bulkBenchKeys()
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
