// Package bfs implements the paper's breadth-first-search application
// (Section 5, Figure 2, Table 7) three ways:
//
//   - Serial: textbook queue-based BFS (the paper's "serial" row).
//   - Array: the deterministic array-based frontier of PBBS — per-vertex
//     neighbor segments, WriteMin parent selection, prefix-sum packing
//     (the paper's "array" row).
//   - Table: the hash-table frontier of Figure 2 — one claim pass per
//     level lowers parents with WriteMin and collects the first claimer
//     of each newly visited vertex; a phase-concurrent table sized from
//     that count takes the collected keys, and Elements() yields the
//     next frontier.
//
// All versions compute the minimum-parent BFS tree: each vertex's parent
// is the smallest-numbered neighbor in the previous level, so the
// deterministic versions agree exactly with the serial reference.
//
// Where Figure 2 negates a visited vertex's parent, which takes a settle
// pass per level, every claim here carries its depth: a claim at depth d
// writes d<<32 | parent, so WriteMin keeps the smallest depth and then the
// smallest parent, and a vertex visited at an earlier level rejects later
// claims by itself. The tree is the same; the exported functions mask the
// depth off before returning. The encoding holds fewer than 2^31 levels.
package bfs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

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

// depthTag is the high half of every claim at depth d: parent v claims
// with depthTag(d) | v. Below 2^31 levels (d <= maxDepth) that stays
// under Unvisited for every uint32 parent.
func depthTag(d int) int64 {
	const maxDepth = 1<<31 - 2
	if d > maxDepth {
		panic(fmt.Sprintf("bfs: level %d is past the %d levels a claim can encode", d, maxDepth+1))
	}
	return int64(d) << 32
}

// claim is claimLevel's WriteMin: it lowers parents[u] to v unless u
// holds v or less (visited at an earlier depth, or claimed by v or a
// smaller vertex at this one), and reports whether its CAS replaced
// Unvisited. Exactly one call per newly visited vertex does that, its
// first claimer; later, smaller claims still lower parents[u], so the
// level ends with the same minimum parent whichever claimer came first.
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

// claimChunk is the staging window of the claim pass: how many frontier
// vertices have every neighbor's parents word touched before the chunk
// is claimed. The touches are independent loads, so the core keeps many
// of their misses in flight, where each claim's load-CAS chain waits.
// claimBuf is how many keys a claim block buffers before handing them on.
const claimChunk, claimBuf = 32, 256

// claimLevel is the claim pass over a frontier at depth d-1, with tag =
// depthTag(d); entries are vertex+base (Array's vertices, Table's keys).
// Each block of the automatic grain touches a chunk's neighbors' parents
// with atomic loads (which cannot race with the CASes), then claims the
// chunk. With a non-nil emit, a block buffers the key (vertex+1) of every
// vertex it first-claims and passes the buffer to emit when it fills and
// when the block ends, so emit sees each newly visited vertex's key
// exactly once. Blocks call emit concurrently.
func claimLevel[V uint32 | uint64](g *graph.Graph, parents []int64, frontier []V, base V, tag int64, emit func(keys []uint64)) {
	parallel.ForBlocked(len(frontier), 0, func(lo, hi int) {
		var buf []uint64 // escapes through emit, so only a block that emits allocates it
		if emit != nil {
			buf = make([]uint64, claimBuf)
		}
		k := 0
		for c := lo; c < hi; c += claimChunk {
			chunk := frontier[c:min(c+claimChunk, hi)]
			for _, f := range chunk {
				for _, u := range g.Neighbors(int(f - base)) {
					atomic.LoadInt64(&parents[u])
				}
			}
			for _, f := range chunk {
				v := tag | int64(f-base)
				for _, u := range g.Neighbors(int(f - base)) {
					if !claim(parents, u, v) || emit == nil {
						continue
					}
					if k == len(buf) {
						emit(buf)
						k = 0
					}
					buf[k] = uint64(u) + 1 // offset: table keys must not be 0
					k++
				}
			}
		}
		if k > 0 {
			emit(buf[:k])
		}
	})
}

// decodeAll masks the depth off every visited vertex's parent.
func decodeAll(parents []int64) {
	parallel.For(len(parents), func(i int) {
		if parents[i] != Unvisited {
			parents[i] &= 1<<32 - 1
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
	parents[r] = int64(r)
	frontier := []uint32{uint32(r)}
	for d := 1; len(frontier) > 0; d++ {
		f := len(frontier)
		degs := make([]int, f)
		parallel.For(f, func(i int) { degs[i] = g.Degree(int(frontier[i])) })
		offsets := make([]int, f)
		total := parallel.Scan(offsets, degs)
		next := make([]uint32, total)
		const none = ^uint32(0)
		tag := depthTag(d)
		claimLevel(g, parents, frontier, 0, tag, nil)
		// With all claims settled, exactly one frontier vertex owns each
		// newly claimed neighbor; owners copy into their segments.
		parallel.For(f, func(i int) {
			v := frontier[i]
			o := offsets[i]
			for _, u := range g.Neighbors(int(v)) {
				if atomic.LoadInt64(&parents[u]) == tag|int64(v) {
					next[o] = u
					o++
				}
			}
			for ; o < offsets[i]+degs[i]; o++ {
				next[o] = none
			}
		})
		frontier = parallel.Pack(next, func(i int) bool { return next[i] != none })
	}
	decodeAll(parents)
	return parents
}

// Table runs the hash-table BFS of Figure 2 with the given table kind.
// Each level makes one claim pass over the frontier first: WriteMin
// lowers parents with depth-tagged claims, which vertices visited at an
// earlier level reject, so no pass settles the new frontier; and the
// first claimer of each newly visited vertex hands it on, so every
// vertex is collected once and the neighbors are walked once. Only then
// is the level's table built, sized from the k keys the pass collected:
// the smallest power of two above 2k (times four for cuckoo), where
// Figure 2 sizes it from the frontier's total degree because it inserts
// every neighbor. One tables.InsertAll inserts the keys and Elements()
// yields the next frontier; a level that claims nothing ends the search
// without a table. The capacity depends only on the level's vertex set,
// so for a deterministic kind the frontier order does too.
func Table(g *graph.Graph, r int, kind tables.Kind) []int64 {
	return table(g, r, kind, nil)
}

// table is Table with a hook called once per level with the frontier
// it expanded (table keys) and the table built from the keys it
// claimed, nil for the last level, which claims none. Tests use it to
// compare frontiers and check table sizes.
func table(g *graph.Graph, r int, kind tables.Kind, level func(frontier []uint64, tab tables.Table)) []int64 {
	n := g.NumVertices()
	parents := make([]int64, n)
	parallel.For(n, func(i int) { parents[i] = Unvisited })
	parents[r] = int64(r)
	frontier := []uint64{uint64(r) + 1}
	wins := make([]uint64, n) // each level's newly visited keys
	for d := 1; ; d++ {
		// Each full buffer reserves its range of wins with one add.
		var end atomic.Int64
		claimLevel(g, parents, frontier, 1, depthTag(d), func(keys []uint64) {
			at := end.Add(int64(len(keys))) - int64(len(keys))
			copy(wins[at:], keys)
		})
		k := int(end.Load())
		if k == 0 {
			if level != nil {
				level(frontier, nil)
			}
			break
		}
		tab := tables.MustNew[core.SetOps](kind, levelSize(kind, k))
		tables.InsertAll(tab, wins[:k])
		if level != nil {
			level(frontier, tab)
		}
		frontier = tab.Elements()
	}
	decodeAll(parents)
	return parents
}

// levelSize is the capacity of a level's table holding k keys: the
// smallest power of two above 2k, so the load stays below 1/2. Cuckoo
// gets four times that, as the paper doubles its cuckoo tables for BFS
// and two-choice cuckoo degrades right at 50% load.
func levelSize(kind tables.Kind, k int) int {
	size := 1
	for size <= 2*k {
		size <<= 1
	}
	if kind == tables.Cuckoo {
		size *= 4
	}
	return size
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
