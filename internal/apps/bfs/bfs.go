// Package bfs implements the paper's breadth-first-search application
// (Section 5, Figure 2, Table 7) three ways:
//
//   - Serial: textbook queue-based BFS (the paper's "serial" row).
//   - Array: the deterministic array-based frontier of PBBS — per-vertex
//     neighbor segments, WriteMin parent selection, prefix-sum packing
//     (the paper's "array" row).
//   - Table: the hash-table frontier of Figure 2 — one claim pass per
//     level lowers parents with WriteMin, the first claimer of each
//     newly visited vertex adds it to a phase-concurrent table, and
//     Elements() yields the next frontier.
//
// All versions compute the minimum-parent BFS tree: each vertex's parent
// is the smallest-numbered neighbor in the previous level, so the
// deterministic versions agree exactly with the serial reference.
//
// Following Figure 2, visited vertices hold their parent *negated*
// (encoded -(p+1)) while a level is being processed; the exported
// functions decode before returning.
package bfs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"phasehash/internal/atomicx"
	"phasehash/internal/core"
	"phasehash/internal/graph"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

// Unvisited marks a vertex not reached by the search.
const Unvisited = int64(math.MaxInt64)

// Serial runs a sequential BFS from r and returns the parent array
// (parents[v] = parent of v, r for the root, Unvisited if unreachable).
// The frontier is scanned in increasing vertex order with first-claim
// wins, which makes every vertex's parent its minimum previous-level
// neighbor — the same tree the WriteMin-based parallel versions build.
func Serial(g *graph.Graph, r int) []int64 {
	n := g.NumVertices()
	parents := make([]int64, n)
	for i := range parents {
		parents[i] = Unvisited
	}
	parents[r] = int64(r)
	frontier := []uint32{uint32(r)}
	var next []uint32
	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			for _, u := range g.Neighbors(int(v)) {
				if parents[u] == Unvisited {
					parents[u] = int64(v)
					next = append(next, u)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = append(frontier[:0], next...)
	}
	return parents
}

// visited encoding: -(p+1) for a settled vertex with parent p.
func encode(p int64) int64 { return -(p + 1) }
func decode(p int64) int64 { return -p - 1 }

// claimNeighbors runs Array's WriteMin parent-claim pass for one
// frontier. Settled vertices are negative and skipped; claimed-but-
// unsettled vertices still accept smaller claims, which is what makes
// the result the minimum parent and hence deterministic.
func claimNeighbors(g *graph.Graph, parents []int64, frontier []uint32) {
	parallel.For(len(frontier), func(i int) {
		v := frontier[i]
		for _, u := range g.Neighbors(int(v)) {
			if atomic.LoadInt64(&parents[u]) < 0 {
				continue // settled in an earlier level
			}
			atomicx.WriteMinInt64(&parents[u], int64(v))
		}
	})
}

// claim is Table's WriteMin: it lowers parents[u] to v unless u is
// settled (negative) or already claimed by v or a smaller vertex, and
// reports whether its CAS replaced Unvisited. Exactly one call per newly
// visited vertex does that, its first claimer; later, smaller claims
// still lower parents[u], so the level ends with the same minimum parent
// whichever claimer came first.
func claim(parents []int64, u uint32, v int64) bool {
	for {
		cur := atomic.LoadInt64(&parents[u])
		if cur <= v {
			return false
		}
		if atomic.CompareAndSwapInt64(&parents[u], cur, v) {
			return cur == Unvisited
		}
	}
}

// claimBuf is how many keys a claim block stages before handing them on.
const claimBuf = 256

// claimLevel is Table's one claim pass over a level. frontier holds
// table keys (vertex+1) and is split at the automatic grain. Each block
// stages the key of every vertex it first-claims in a fixed buffer and
// passes the buffer to emit when it fills and when the block ends, so
// across all calls emit sees each newly visited vertex's key exactly
// once. Blocks call emit concurrently.
func claimLevel(g *graph.Graph, parents []int64, frontier []uint64, emit func(keys []uint64)) {
	parallel.ForBlocked(len(frontier), 0, func(lo, hi int) {
		var buf [claimBuf]uint64
		k := 0
		for _, key := range frontier[lo:hi] {
			v := int64(key - 1)
			for _, u := range g.Neighbors(int(v)) {
				if !claim(parents, u, v) {
					continue
				}
				if k == len(buf) {
					emit(buf[:])
					k = 0
				}
				buf[k] = uint64(u) + 1 // offset: table keys must not be 0
				k++
			}
		}
		if k > 0 {
			emit(buf[:k])
		}
	})
}

// settle negates the parents of the new frontier, marking them visited.
// Frontier entries are vertex+base: Array's hold vertices (base 0),
// Table's hold table keys (base 1).
func settle[V uint32 | uint64](parents []int64, frontier []V, base V) {
	parallel.For(len(frontier), func(i int) {
		u := frontier[i] - base
		parents[u] = encode(parents[u])
	})
}

// decodeAll converts the negated encoding back to plain parents.
func decodeAll(parents []int64) {
	parallel.For(len(parents), func(i int) {
		if parents[i] < 0 {
			parents[i] = decode(parents[i])
		}
	})
}

// Array runs the parallel array-based BFS (the paper's deterministic
// PBBS baseline): allocate a segment per frontier vertex sized by its
// degree, WriteMin-claim parents, copy each vertex's won neighbors into
// its segment, and pack with a prefix sum.
func Array(g *graph.Graph, r int) []int64 {
	n := g.NumVertices()
	parents := make([]int64, n)
	parallel.For(n, func(i int) { parents[i] = Unvisited })
	parents[r] = encode(int64(r))
	frontier := []uint32{uint32(r)}
	for len(frontier) > 0 {
		f := len(frontier)
		degs := make([]int, f)
		parallel.For(f, func(i int) { degs[i] = g.Degree(int(frontier[i])) })
		offsets := make([]int, f)
		total := parallel.Scan(offsets, degs)
		next := make([]uint32, total)
		const none = ^uint32(0)
		claimNeighbors(g, parents, frontier)
		// With all claims settled, exactly one frontier vertex owns each
		// newly claimed neighbor; owners copy into their segments.
		parallel.For(f, func(i int) {
			v := frontier[i]
			o := offsets[i]
			for _, u := range g.Neighbors(int(v)) {
				if atomic.LoadInt64(&parents[u]) == int64(v) {
					next[o] = u
					o++
				}
			}
			for ; o < offsets[i]+degs[i]; o++ {
				next[o] = none
			}
		})
		frontier = parallel.Pack(next, func(i int) bool { return next[i] != none })
		settle(parents, frontier, 0)
	}
	decodeAll(parents)
	return parents
}

// Table runs the hash-table BFS of Figure 2 with the given table kind.
// Each level sizes a fresh table to the frontier's total degree (times
// four for cuckoo) and makes one claim pass over the frontier: WriteMin
// lowers parents, and the first claimer of each newly visited vertex
// hands it on, so every vertex is inserted once and the neighbors are
// walked once. The pass collects those keys and one tables.InsertAll
// inserts them. Elements() yields the next frontier, in an order that
// depends only on the level's vertex set and the table capacity when
// the table is deterministic.
func Table(g *graph.Graph, r int, kind tables.Kind) []int64 {
	return table(g, r, kind, nil)
}

// table is Table with a hook that sees each level's frontier (table
// keys) before it is expanded; tests use it to compare frontiers.
func table(g *graph.Graph, r int, kind tables.Kind, level func(frontier []uint64)) []int64 {
	n := g.NumVertices()
	parents := make([]int64, n)
	parallel.For(n, func(i int) { parents[i] = Unvisited })
	parents[r] = encode(int64(r))
	frontier := []uint64{uint64(r) + 1}
	wins := make([]uint64, n) // each level's newly visited keys
	for len(frontier) > 0 {
		if level != nil {
			level(frontier)
		}
		sumDeg := parallel.Sum(len(frontier), func(i int) int { return g.Degree(int(frontier[i] - 1)) })
		size := ceilPow2(sumDeg + 1)
		if kind == tables.Cuckoo {
			// The paper doubles the cuckoo table for BFS; we double again
			// because a frontier whose neighbors are all distinct and
			// unvisited fills sumDeg cells, and two-choice cuckoo
			// degrades right at 50% load.
			size *= 4
		}
		tab := tables.MustNew[core.SetOps](kind, size)
		// Each full buffer reserves its range of wins with one add.
		var end atomic.Int64
		claimLevel(g, parents, frontier, func(keys []uint64) {
			at := end.Add(int64(len(keys))) - int64(len(keys))
			copy(wins[at:], keys)
		})
		tables.InsertAll(tab, wins[:end.Load()])
		frontier = tab.Elements()
		settle(parents, frontier, 1)
	}
	decodeAll(parents)
	return parents
}

func ceilPow2(x int) int {
	m := 1
	for m < x {
		m <<= 1
	}
	return m
}

// Check verifies that parents is a valid BFS tree of g rooted at r — the
// root is its own parent, every tree edge exists in g, levels increase
// by exactly one along tree edges, and no reachable vertex is missed. It
// returns the number of reached vertices.
func Check(g *graph.Graph, r int, parents []int64) (int, error) {
	n := g.NumVertices()
	if parents[r] != int64(r) {
		return 0, fmt.Errorf("bfs: root parent is %d, want %d", parents[r], r)
	}
	// Compute levels by chasing parents (with cycle guard).
	level := make([]int64, n)
	for i := range level {
		level[i] = -1
	}
	level[r] = 0
	reached := 0
	var walk func(v int, depth int) (int64, error)
	walk = func(v int, depth int) (int64, error) {
		if depth > n {
			return 0, fmt.Errorf("bfs: parent chain cycle at %d", v)
		}
		if level[v] >= 0 {
			return level[v], nil
		}
		p := parents[v]
		if p == Unvisited {
			return -1, nil
		}
		if p < 0 || p >= int64(n) {
			return 0, fmt.Errorf("bfs: vertex %d has bad parent %d", v, p)
		}
		// Tree edge must exist.
		ok := false
		for _, u := range g.Neighbors(v) {
			if int64(u) == p {
				ok = true
				break
			}
		}
		if !ok {
			return 0, fmt.Errorf("bfs: tree edge %d-%d not in graph", v, p)
		}
		pl, err := walk(int(p), depth+1)
		if err != nil {
			return 0, err
		}
		if pl < 0 {
			return 0, fmt.Errorf("bfs: vertex %d has unvisited parent %d", v, p)
		}
		level[v] = pl + 1
		return level[v], nil
	}
	for v := 0; v < n; v++ {
		l, err := walk(v, 0)
		if err != nil {
			return 0, err
		}
		if l >= 0 {
			reached++
		}
	}
	// BFS property: every edge spans at most one level, and every vertex
	// adjacent to a visited vertex is visited.
	for v := 0; v < n; v++ {
		if level[v] < 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if level[u] < 0 {
				return 0, fmt.Errorf("bfs: vertex %d visited but neighbor %d not", v, u)
			}
			d := level[v] - level[u]
			if d < -1 || d > 1 {
				return 0, fmt.Errorf("bfs: edge %d-%d spans levels %d and %d", v, u, level[v], level[u])
			}
		}
	}
	return reached, nil
}
