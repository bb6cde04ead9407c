package bfs

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"

	"phasehash/internal/core"
	"phasehash/internal/graph"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

func graphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"grid":   graph.Grid3D(12),           // 1728 vertices, connected
		"random": graph.Random(3000, 5, 11),  // likely connected
		"rmat":   graph.RMat(11, 3*2048, 13), // skewed, disconnected
		"path":   pathGraph(100),
		"star":   starGraph(200),
	}
}

func pathGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	return graph.FromEdges(n, edges)
}

func starGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: uint32(i + 1)}
	}
	return graph.FromEdges(n, edges)
}

func TestSerialBFSValid(t *testing.T) {
	for name, g := range graphs(t) {
		parents := Serial(g, 0)
		if _, err := Check(g, 0, parents); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestArrayMatchesSerial(t *testing.T) {
	for name, g := range graphs(t) {
		want := Serial(g, 0)
		got := Array(g, 0)
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("%s: parents differ at %d: serial %d, array %d", name, v, want[v], got[v])
			}
		}
	}
}

func TestTableKindsValidAndDeterministic(t *testing.T) {
	// One worker runs every claim pass and insert phase inline, so a
	// kind that relied on concurrent blocks would show it there.
	for name, p := range map[string]int{"default": 0, "one-worker": 1} {
		t.Run(name, func(t *testing.T) {
			defer parallel.SetNumWorkers(parallel.SetNumWorkers(p))
			for name, g := range graphs(t) {
				want := Serial(g, 0)
				for _, kind := range tables.ParallelKinds {
					parents := Table(g, 0, kind)
					if _, err := Check(g, 0, parents); err != nil {
						t.Fatalf("%s/%s: %v", name, kind, err)
					}
					// Every kind computes the min-parent tree (WriteMin
					// decides parents, not the table), so all match serial.
					for v := range want {
						if want[v] != parents[v] {
							t.Fatalf("%s/%s: parent of %d is %d, serial %d", name, kind, v, parents[v], want[v])
						}
					}
				}
			}
		})
	}
}

// TestTableLevelSizes checks the sizing rule: each level's table is
// built after its claim pass, at the smallest power of two above twice
// the keys it holds (four times that for cuckoo), and the level that
// claims nothing, the last, builds none.
func TestTableLevelSizes(t *testing.T) {
	for name, g := range graphs(t) {
		for _, kind := range tables.ParallelKinds {
			var levels, built int
			table(g, 0, kind, func(frontier []uint64, tab tables.Table) {
				levels++
				if tab == nil {
					return
				}
				built++
				k := tab.Count()
				want := 4
				for want <= 2*k {
					want *= 2
				}
				if kind == tables.Cuckoo {
					want *= 4
				}
				// Compare with the kind's own table of that capacity: a
				// kind may round small sizes up.
				want = tables.MustNew[core.SetOps](kind, want).Size()
				if got := tab.Size(); k == 0 || got != want {
					t.Fatalf("%s/%s: level %d holds %d keys in %d cells, want %d", name, kind, levels, k, got, want)
				}
			})
			if built != levels-1 {
				t.Fatalf("%s/%s: %d levels built %d tables, want %d", name, kind, levels, built, levels-1)
			}
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two components; BFS from 0 must leave the other untouched.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}
	g := graph.FromEdges(5, edges)
	for _, f := range []func() []int64{
		func() []int64 { return Serial(g, 0) },
		func() []int64 { return Array(g, 0) },
		func() []int64 { return Table(g, 0, tables.LinearD) },
	} {
		parents := f()
		reached, err := Check(g, 0, parents)
		if err != nil {
			t.Fatal(err)
		}
		if reached != 3 {
			t.Fatalf("reached %d vertices, want 3", reached)
		}
		if parents[3] != Unvisited || parents[4] != Unvisited {
			t.Fatal("vertices in other component were visited")
		}
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.FromEdges(1, nil)
	parents := Table(g, 0, tables.LinearD)
	if parents[0] != 0 {
		t.Fatalf("parents[0] = %d", parents[0])
	}
}

func TestRepeatedRunsIdentical(t *testing.T) {
	g := graph.Random(2000, 5, 21)
	a := Table(g, 0, tables.LinearD)
	for trial := 0; trial < 4; trial++ {
		b := Table(g, 0, tables.LinearD)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("trial %d: non-deterministic parent at %d", trial, v)
			}
		}
	}
}

// completeBipartite returns K_{2,m}: vertices 0 and 1 are each joined to
// every one of 2..m+1.
func completeBipartite(m int) *graph.Graph {
	edges := make([]graph.Edge, 0, 2*m)
	for u := 2; u < m+2; u++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(u)}, graph.Edge{U: 1, V: uint32(u)})
	}
	return graph.FromEdges(m+2, edges)
}

// unvisited returns a parent array with every vertex Unvisited.
func unvisited(n int) []int64 {
	parents := make([]int64, n)
	for i := range parents {
		parents[i] = Unvisited
	}
	return parents
}

// claimOnce runs one claimLevel at depth d over frontier and checks that
// the keys it emits are exactly the vertices it newly claimed, each once.
// It returns the emitted keys.
func claimOnce(t *testing.T, g *graph.Graph, parents []int64, frontier []uint64, d int) []uint64 {
	t.Helper()
	var mu sync.Mutex
	var got []uint64
	claimLevel(g, parents, frontier, 1, depthTag(d), func(keys []uint64) {
		mu.Lock()
		got = append(got, keys...)
		mu.Unlock()
	})
	emitted := make([]bool, len(parents))
	for _, k := range got {
		u := k - 1
		if emitted[u] {
			t.Fatalf("vertex %d emitted twice in one level", u)
		}
		emitted[u] = true
	}
	for u, p := range parents {
		// Claimed this level: tagged with depth d.
		claimed := p != Unvisited && p>>32 == int64(d)
		if claimed != emitted[u] {
			t.Fatalf("vertex %d: claimed %v, emitted %v", u, claimed, emitted[u])
		}
	}
	return got
}

// TestClaimLevelEmitsEachVertexOnce checks the first-claimer rule: each
// newly visited vertex is emitted exactly once however many frontier
// vertices claim it. Every level's frontier is in decreasing vertex
// order, so a vertex's first claimer is usually beaten later by a
// smaller one; an emit on every successful WriteMin would emit it again.
func TestClaimLevelEmitsEachVertexOnce(t *testing.T) {
	t.Run("K2m", func(t *testing.T) {
		const m = 5000 // many full claim buffers
		g := completeBipartite(m)
		parents := unvisited(g.NumVertices())
		parents[0], parents[1] = 0, 0               // both at depth 0
		claimOnce(t, g, parents, []uint64{2, 1}, 1) // vertex 1, then vertex 0
		for u := 2; u < m+2; u++ {
			if parents[u] != depthTag(1) {
				t.Fatalf("parent of %d is %#x, want depth 1, parent 0", u, parents[u])
			}
		}
	})
	for name, g := range map[string]*graph.Graph{
		"torus": graph.Grid3D(24),
		"rmat":  graph.RMat(13, 8<<13, 5),
	} {
		t.Run(name, func(t *testing.T) {
			parents := unvisited(g.NumVertices())
			parents[0] = 0
			frontier := []uint64{1}
			for d := 1; len(frontier) > 0; d++ {
				frontier = claimOnce(t, g, parents, frontier, d)
				slices.SortFunc(frontier, func(a, b uint64) int { return cmp.Compare(b, a) })
			}
			decodeAll(parents)
			if !slices.Equal(parents, Serial(g, 0)) {
				t.Fatal("parents differ from Serial")
			}
		})
	}
}

// TestDeepGraphMatchesSerial runs a cycle of 200 000 vertices, whose
// 100 001 levels carry claim depths past 2^16, and whose farthest vertex
// is claimed from both sides at the last level: Table and Array must
// still build Serial's tree at every worker count.
func TestDeepGraphMatchesSerial(t *testing.T) {
	const n = 200_000
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	g := graph.FromEdges(n, edges)
	want := Serial(g, 0)
	if want[n/2] != n/2-1 {
		t.Fatalf("serial parent of %d is %d, want %d", n/2, want[n/2], n/2-1)
	}
	for _, p := range []int{1, 2, 4} {
		withProcs(p, func() {
			if !slices.Equal(Table(g, 0, tables.LinearD), want) {
				t.Errorf("%d workers: Table parents differ from Serial", p)
			}
			if !slices.Equal(Array(g, 0), want) {
				t.Errorf("%d workers: Array parents differ from Serial", p)
			}
		})
	}
}

// TestDepthTagBound checks the encoding's bound: the deepest claim of
// the largest parent stays below Unvisited, and one level more panics.
func TestDepthTagBound(t *testing.T) {
	if deepest := depthTag(1<<31-2) | (1<<32 - 1); deepest >= Unvisited {
		t.Fatalf("deepest claim %#x is not below Unvisited", deepest)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("depthTag(2^31-1) did not panic")
		}
	}()
	depthTag(1<<31 - 1)
}

// TestTableFrontiersReproducible checks what examples/bfs claims: with a
// deterministic table kind, the sequence of per-level frontiers, order
// included, is the same on every run and at every worker count.
func TestTableFrontiersReproducible(t *testing.T) {
	g := graph.Random(6000, 5, 3)
	for _, kind := range []tables.Kind{tables.LinearD, tables.LinearDSharded, tables.LinearDCompact} {
		var want [][]uint64
		for _, p := range []int{1, 2, 4} {
			for run := 0; run < 2; run++ {
				var got [][]uint64
				withProcs(p, func() {
					table(g, 0, kind, func(frontier []uint64, _ tables.Table) { got = append(got, frontier) })
				})
				if want == nil {
					want = got
					continue
				}
				if !slices.EqualFunc(want, got, slices.Equal[[]uint64]) {
					t.Fatalf("%s: GOMAXPROCS %d, run %d: frontiers differ", kind, p, run)
				}
			}
		}
	}
}

// withProcs runs fn with GOMAXPROCS and the parallel worker count at p.
func withProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(p))
	fn()
}
