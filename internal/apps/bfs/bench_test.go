package bfs

import (
	"runtime"
	"testing"

	"phasehash/internal/graph"
	"phasehash/internal/tables"
)

// BenchmarkBFSTorus is the application layer's own number: one whole BFS
// of the benchmark's 102^3 torus (about 1.06 M vertices) per op, for the
// deterministic hash-table BFS and the two baselines it is compared with
// in Table 7. ns/vertex and B/vertex are the op time and the bytes
// allocated per op over the vertex count.
//
//	go test -run '^$' -bench BFSTorus -benchmem ./internal/apps/bfs
func BenchmarkBFSTorus(b *testing.B) {
	g := graph.Grid3D(102)
	n := g.NumVertices()
	for _, c := range []struct {
		name string
		run  func() []int64
	}{
		{"Table/" + string(tables.LinearD), func() []int64 { return Table(g, 0, tables.LinearD) }},
		{"Array", func() []int64 { return Array(g, 0) }},
		{"Serial", func() []int64 { return Serial(g, 0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				sink = c.run()
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vertex")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*n), "B/vertex")
		})
	}
}

var sink []int64
