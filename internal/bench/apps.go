package bench

import (
	"time"

	"phasehash/internal/apps/bfs"
	"phasehash/internal/apps/contract"
	"phasehash/internal/apps/dedup"
	"phasehash/internal/apps/refine"
	"phasehash/internal/apps/spanning"
	"phasehash/internal/apps/suffixapp"
	"phasehash/internal/delaunay"
	"phasehash/internal/geom"
	"phasehash/internal/graph"
	"phasehash/internal/sequence"
	"phasehash/internal/suffix"
	"phasehash/internal/tables"
)

// AppKinds lists the table kinds the paper's application tables compare
// (chainedHash-CR stands in for both chained variants, as in the paper;
// hopscotch is excluded from applications exactly as the paper excludes
// it — see its Footnote 2).
var AppKinds = []tables.Kind{tables.LinearD, tables.LinearND, tables.Cuckoo, tables.ChainedCR}

// Table3 measures remove-duplicates on one distribution: returns the
// time for the insert-all + Elements() pipeline (table size 2^k >= 4n/3,
// mirroring the paper's fixed 2^27 for n=10^8).
func Table3(kind tables.Kind, d sequence.Distribution, n int) time.Duration {
	elems := sequence.WordElements(d, n, 11)
	size := tables.SizeFor(kind, n*4/3)
	start := time.Now()
	if d.IsPair() {
		// Key-value inputs dedup by key, resolving values with the
		// deterministic priority rule.
		dedup.RunPairs(kind, elems, size)
	} else {
		dedup.Run(kind, elems, size)
	}
	return time.Since(start)
}

// RefinementInput bundles the prepared mesh for Table 4 (building the
// input triangulation is untimed, as in PBBS).
type RefinementInput struct {
	Name string
	Pts  []geom.Point
}

// Table4Inputs returns the paper's two geometry inputs scaled to n
// points (the paper uses 5M).
func Table4Inputs(n int) []RefinementInput {
	return []RefinementInput{
		{Name: "2DinCube", Pts: geom.InCube(n, 101)},
		{Name: "2Dkuzmin", Pts: geom.Kuzmin(n, 103)},
	}
}

// Table4 measures the hash-table portion of a bounded
// Delaunay-refinement run on the given points: each generation's
// InsertAll of its bad triangles plus its Elements() call. The paper
// times one iteration; pass maxRounds=1 for that methodology, or more
// generations for a longer run. Every kind starts from the same bad
// set. Each deterministic kind returns it in a schedule-free order and
// refines to one mesh at any worker count; only the non-deterministic
// kinds diverge across schedules.
func Table4(kind tables.Kind, pts []geom.Point, maxRounds int) time.Duration {
	m := delaunay.Build(pts)
	st := refine.Run(m, refine.Config{
		MinAngleDeg: 25,
		MaxRounds:   maxRounds,
		Kind:        kind,
	})
	return st.TableTime
}

// SuffixInput is a prepared Table 5 input: tree structure and patterns
// (construction untimed).
type SuffixInput struct {
	Corpus   suffixapp.Corpus
	Tree     *suffix.Tree
	Patterns [][]byte
}

// Table5Inputs prepares the three corpora at textLen bytes with m search
// patterns each.
func Table5Inputs(textLen, m int) []SuffixInput {
	out := make([]SuffixInput, 0, len(suffixapp.Corpora))
	for _, c := range suffixapp.Corpora {
		text := suffixapp.MakeText(c, textLen, 51)
		out = append(out, SuffixInput{
			Corpus:   c,
			Tree:     suffix.New(text),
			Patterns: suffixapp.Patterns(text, m, 53),
		})
	}
	return out
}

// Table5 measures suffix-tree node insertion (5a) and search (5b) for
// one prepared input and table kind.
func Table5(kind tables.Kind, in SuffixInput) (insert, search time.Duration) {
	res := suffixapp.Run(in.Tree, in.Patterns, kind)
	return res.InsertTime, res.SearchTime
}

// GraphInput is a prepared graph workload shared by Tables 6-8.
type GraphInput struct {
	Name    graph.Name
	G       *graph.Graph
	Edges   []graph.Edge
	Labels  []uint32 // contraction relabeling (Table 6)
	Weights []uint16
}

// GraphInputs builds the paper's three graphs at ~n vertices, with the
// maximal-matching relabeling for edge contraction precomputed
// (untimed, as in the paper).
func GraphInputs(n int) []GraphInput {
	out := make([]GraphInput, 0, 3)
	for _, name := range graph.Names {
		g, err := graph.Build(name, n, 71)
		if err != nil {
			panic(err)
		}
		var edges []graph.Edge
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(v) {
				if int(u) > v {
					edges = append(edges, graph.Edge{U: uint32(v), V: u})
				}
			}
		}
		labels := contract.Relabeling(contract.MaximalMatching(g.NumVertices(), edges))
		weights := make([]uint16, len(edges))
		for i := range weights {
			weights[i] = 1
		}
		out = append(out, GraphInput{Name: name, G: g, Edges: edges, Labels: labels, Weights: weights})
	}
	return out
}

// Table6 measures one edge-contraction round (insert relabeled edges
// with '+' combine, then Elements).
func Table6(kind tables.Kind, in GraphInput) time.Duration {
	start := time.Now()
	contract.Run(kind, in.Edges, in.Labels, in.Weights)
	return time.Since(start)
}

// Table7Variant names the BFS implementations of Table 7.
type Table7Variant string

// Table 7's non-hash rows.
const (
	BFSSerial Table7Variant = "serial"
	BFSArray  Table7Variant = "array"
)

// Table7 measures a full BFS from vertex 0. Pass a table kind for the
// hash rows, or use Table7Baseline for serial/array.
func Table7(kind tables.Kind, in GraphInput) time.Duration {
	start := time.Now()
	bfs.Table(in.G, 0, kind)
	return time.Since(start)
}

// Table7Baseline measures the serial or array-based BFS.
func Table7Baseline(v Table7Variant, in GraphInput) time.Duration {
	start := time.Now()
	switch v {
	case BFSSerial:
		bfs.Serial(in.G, 0)
	case BFSArray:
		bfs.Array(in.G, 0)
	default:
		panic("bench: unknown BFS variant")
	}
	return time.Since(start)
}

// Table8 measures spanning forest with hash-table reservations.
func Table8(kind tables.Kind, in GraphInput) time.Duration {
	start := time.Now()
	spanning.Table(in.G.NumVertices(), in.Edges, kind)
	return time.Since(start)
}

// Table8Baseline measures the serial or array-reservation variant.
func Table8Baseline(v Table7Variant, in GraphInput) time.Duration {
	start := time.Now()
	switch v {
	case BFSSerial:
		spanning.Serial(in.G.NumVertices(), in.Edges)
	case BFSArray:
		spanning.Array(in.G.NumVertices(), in.Edges)
	default:
		panic("bench: unknown spanning variant")
	}
	return time.Since(start)
}
