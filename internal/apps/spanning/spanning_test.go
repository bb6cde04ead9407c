package spanning

import (
	"fmt"
	"testing"

	"phasehash/internal/graph"
	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

func randomEdges(n, m int, seed uint64) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: uint32(hashx.At(seed, 2*i) % uint64(n)),
			V: uint32(hashx.At(seed, 2*i+1) % uint64(n)),
		}
	}
	return edges
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSerialValid(t *testing.T) {
	n := 500
	edges := randomEdges(n, 2000, 1)
	kept := Serial(n, edges)
	if _, err := Check(n, edges, kept); err != nil {
		t.Fatal(err)
	}
}

func TestArrayMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		n := 800
		edges := randomEdges(n, 3000, seed)
		want := Serial(n, edges)
		got := Array(n, edges)
		if !sameInts(want, got) {
			t.Fatalf("seed %d: array forest differs from serial (lens %d vs %d)", seed, len(got), len(want))
		}
		if _, err := Check(n, edges, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTableLinearDMatchesSerial runs Table with every deterministic
// kind (linearHash-D, its sharded and compact layouts, serialHash-HI)
// on random edge lists and on the paper's three graph inputs, large
// enough that prefixes span several pack blocks: the kept edges must
// equal Serial's.
func TestTableLinearDMatchesSerial(t *testing.T) {
	type input struct {
		name  string
		n     int
		edges []graph.Edge
	}
	var inputs []input
	for seed := uint64(1); seed <= 3; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("random-edges-%d", seed), 600, randomEdges(600, 2500, seed)})
	}
	for _, name := range graph.Names {
		g, err := graph.Build(name, 20000, 5)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{string(name), g.NumVertices(), edgeList(g)})
	}
	for _, in := range inputs {
		want := Serial(in.n, in.edges)
		for _, kind := range tables.Kinds {
			if !kind.IsDeterministic() {
				continue
			}
			if got := Table(in.n, in.edges, kind); !sameInts(want, got) {
				t.Fatalf("%s, %s: forest differs from serial (%d vs %d edges)", in.name, kind, len(got), len(want))
			}
		}
	}
}

// TestOneWorkerMatchesSerial runs Table and Array at one worker, where
// every parallel loop is a single block, on a grid whose round prefixes
// (granularity m/50) span several pack blocks.
func TestOneWorkerMatchesSerial(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(1))
	g, err := graph.Build(graph.Names[0], 30000, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, edges := g.NumVertices(), edgeList(g)
	if len(edges)/50 <= parallel.MinGrain {
		t.Fatalf("%d edges: prefixes fit one pack block", len(edges))
	}
	want := Serial(n, edges)
	if got := Array(n, edges); !sameInts(want, got) {
		t.Fatalf("array: forest differs from serial (%d vs %d edges)", len(got), len(want))
	}
	for _, kind := range []tables.Kind{tables.LinearD, tables.SerialHI} {
		if got := Table(n, edges, kind); !sameInts(want, got) {
			t.Fatalf("%s: forest differs from serial (%d vs %d edges)", kind, len(got), len(want))
		}
	}
}

// edgeList converts a CSR graph back to an edge list (u < v once per
// edge).
func edgeList(g *graph.Graph) []graph.Edge {
	var edges []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				edges = append(edges, graph.Edge{U: uint32(v), V: u})
			}
		}
	}
	return edges
}

func TestTableOtherKindsValid(t *testing.T) {
	n := 600
	edges := randomEdges(n, 2500, 9)
	wantTrees, err := Check(n, edges, Serial(n, edges))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []tables.Kind{tables.LinearND, tables.Cuckoo, tables.ChainedCR, tables.HopscotchPC} {
		kept := Table(n, edges, kind)
		trees, err := Check(n, edges, kept)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if trees != wantTrees {
			t.Fatalf("%s: %d trees, want %d", kind, trees, wantTrees)
		}
	}
}

func TestGraphInputs(t *testing.T) {
	for _, name := range graph.Names {
		g, err := graph.Build(name, 400, 5)
		if err != nil {
			t.Fatal(err)
		}
		edges := edgeList(g)
		n := g.NumVertices()
		want := Serial(n, edges)
		for _, f := range []func() []int{
			func() []int { return Array(n, edges) },
			func() []int { return Table(n, edges, tables.LinearD) },
		} {
			got := f()
			if !sameInts(want, got) {
				t.Fatalf("%s: deterministic forest differs from serial", name)
			}
		}
	}
}

func TestEdgeCases(t *testing.T) {
	// Self-loops and duplicate edges.
	edges := []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}}
	kept := Array(3, edges)
	if !sameInts(kept, []int{1, 3}) {
		t.Fatalf("kept %v, want [1 3]", kept)
	}
	// Empty graph.
	if got := Table(4, nil, tables.LinearD); len(got) != 0 {
		t.Fatalf("empty edge list kept %v", got)
	}
}

func TestForest(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	f := Forest(edges, []int{1})
	if len(f) != 1 || f[0] != edges[1] {
		t.Fatalf("Forest = %v", f)
	}
}
