// Package spanning implements the paper's spanning-forest application
// (Section 5, Table 8) using deterministic reservations (Blelloch et
// al., PPoPP 2012): edges carry their index as priority; each round,
// live edges find their endpoints' components and reserve *both* roots
// with WriteMin; an edge commits if it still holds at least one of its
// reservations, linking the held root under the other. Three variants:
//
//   - Serial: sequential union-find in edge order (the reference).
//   - Array: reservations in a direct-addressed array indexed by
//     component root (the paper's "array" row).
//   - Table: reservations in a hash table keyed by component root (the
//     paper's hash-table rows) — the variant of choice when vertex IDs
//     come from a huge space and relabeling is to be avoided. Each round
//     decomposes into an insert phase (reserve), a find phase (commit)
//     and a delete phase (release surviving reservations), exactly the
//     phase-concurrent usage the paper describes.
//
// All deterministic variants return exactly the edges the serial
// algorithm picks (the lexicographically-first spanning forest).
package spanning

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/atomicx"
	"phasehash/internal/core"
	"phasehash/internal/detres"
	"phasehash/internal/graph"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
	"phasehash/internal/unionfind"
)

// Serial computes the spanning forest sequentially, returning the
// indices of kept edges in increasing order.
func Serial(n int, edges []graph.Edge) []int {
	uf := unionfind.New(n)
	var kept []int
	for i, e := range edges {
		u, v := uf.Find(int(e.U)), uf.Find(int(e.V))
		if u == v {
			continue
		}
		uf.Link(u, v)
		kept = append(kept, i)
	}
	return kept
}

const noRes = ^uint64(0)

// arrayStep is the deterministic-reservations step with array-based
// reservations (one WriteMin cell per vertex, indexed by component root).
type arrayStep struct {
	uf       *unionfind.UF
	edges    []graph.Edge
	reserved []uint64
	roots    [][2]int32 // per-edge roots cached between reserve and commit
	kept     []bool     // per-edge: committed into the forest
}

func (s *arrayStep) Reserve(i int) bool {
	e := s.edges[i]
	u := s.uf.Find(int(e.U))
	v := s.uf.Find(int(e.V))
	if u == v {
		return false
	}
	s.roots[i] = [2]int32{int32(u), int32(v)}
	atomicx.WriteMin(&s.reserved[u], uint64(i))
	atomicx.WriteMin(&s.reserved[v], uint64(i))
	return true
}

func (s *arrayStep) Commit(i int) bool {
	u, v := int(s.roots[i][0]), int(s.roots[i][1])
	// Commit if we hold either root; link the held root under the other.
	// check-and-reset on v's reservation:
	if atomic.CompareAndSwapUint64(&s.reserved[v], uint64(i), noRes) {
		// v dies; release u (still live) if we hold it too.
		atomic.CompareAndSwapUint64(&s.reserved[u], uint64(i), noRes)
		s.uf.Link(v, u)
		s.kept[i] = true
		return true
	}
	if atomic.CompareAndSwapUint64(&s.reserved[u], uint64(i), noRes) {
		s.uf.Link(u, v)
		s.kept[i] = true
		return true
	}
	return false
}

// Array computes the spanning forest with array reservations; the kept
// edge set equals Serial's.
//
//phasehash:serial pre-publication init: each reservation slot is written by exactly one worker before the speculative rounds begin
func Array(n int, edges []graph.Edge) []int {
	s := &arrayStep{
		uf:       unionfind.New(n),
		edges:    edges,
		reserved: make([]uint64, n),
		roots:    make([][2]int32, len(edges)),
		kept:     make([]bool, len(edges)),
	}
	parallel.For(n, func(i int) { s.reserved[i] = noRes })
	detres.SpeculativeFor(s, 0, len(edges), 0)
	return keptIndices(s.kept)
}

// Table computes the spanning forest with hash-table reservations using
// the given table kind, sized at twice the vertex count as in the
// paper's Table 8 configuration. For deterministic tables the result
// equals Serial's; for the others it is still a valid spanning forest.
func Table(n int, edges []graph.Edge, kind tables.Kind) []int {
	r := &tableRound{
		tab:   tables.MustNew[core.PairMinOps](kind, tables.SizeFor(kind, 2*n)),
		uf:    unionfind.New(n),
		edges: edges,
		roots: make([][2]int32, len(edges)),
		kept:  make([]bool, len(edges)),
	}
	detres.Run(r, 0, len(edges), 0)
	return keptIndices(r.kept)
}

// tableRound is Table's round body for detres.Run. A reservation
// is the element Pair(root+1, edge index) under PairMinOps, so a root's
// key keeps its minimum reserving edge. Reserve finds each edge's roots
// and drops edges inside one tree; Commit runs the round's three phases
// over the live edges.
type tableRound struct {
	tab   tables.Table
	uf    *unionfind.UF
	edges []graph.Edge
	roots [][2]int32 // per-edge roots cached between reserve and commit
	kept  []bool     // per-edge: committed into the forest
	// Phase buffers, sized once at the run's granularity.
	resv, found, release []uint64
}

func (r *tableRound) Reserve(active []int, done []bool) {
	parallel.For(len(active), func(j int) {
		i := active[j]
		e := r.edges[i]
		u, v := r.uf.Find(int(e.U)), r.uf.Find(int(e.V))
		r.roots[i] = [2]int32{int32(u), int32(v)}
		done[j] = u == v
	})
}

func (r *tableRound) Commit(active []int, done []bool) {
	q := len(active)
	if r.resv == nil {
		g := cap(active)
		r.resv, r.found, r.release = make([]uint64, 2*g), make([]uint64, 2*g), make([]uint64, g)
	}
	resv, found, release := r.resv[:2*q], r.found[:2*q], r.release[:q]
	// Insert phase: reserve both roots.
	parallel.For(q, func(j int) {
		i := active[j]
		resv[2*j] = core.Pair(uint32(r.roots[i][0])+1, uint32(i))
		resv[2*j+1] = core.Pair(uint32(r.roots[i][1])+1, uint32(i))
	})
	tables.InsertAll(r.tab, resv)
	// Find phase: read back each root's minimum reservation. An edge
	// commits if it holds either root and links the held root under
	// the other; holding both, it keeps u and must release u's key.
	tables.FindAll(r.tab, resv, found)
	parallel.For(q, func(j int) {
		i := active[j]
		u, v := int(r.roots[i][0]), int(r.roots[i][1])
		holdsU, holdsV := found[2*j] == resv[2*j], found[2*j+1] == resv[2*j+1]
		release[j] = 0
		switch {
		case holdsV:
			if holdsU {
				release[j] = core.Pair(uint32(u)+1, 0)
			}
			r.uf.Link(v, u)
		case holdsU:
			r.uf.Link(u, v)
		default:
			return
		}
		r.kept[i] = true
		done[j] = true
	})
	// Delete phase: release reservations on surviving roots so stale
	// minima cannot block the next round. (Reservations on dead roots
	// are never consulted again and stay in the table; at most one per
	// vertex over the whole run.)
	tables.DeleteAll(r.tab, parallel.Pack(release, func(j int) bool { return release[j] != 0 }))
}

// keptIndices returns the indices of the kept edges in increasing
// order.
func keptIndices(kept []bool) []int {
	bs := parallel.CountBlocks(len(kept), 0, func(lo, hi int) int {
		c := 0
		for _, k := range kept[lo:hi] {
			if k {
				c++
			}
		}
		return c
	})
	out := make([]int, bs.Total())
	parallel.EmitBlocks(bs, out, func(lo, hi int, region []int) {
		o := 0
		for i := lo; i < hi; i++ {
			if kept[i] {
				region[o] = i
				o++
			}
		}
	})
	return out
}

// Forest converts kept edge indices back to edges.
func Forest(edges []graph.Edge, kept []int) []graph.Edge {
	out := make([]graph.Edge, len(kept))
	for i, k := range kept {
		out[i] = edges[k]
	}
	return out
}

// Check verifies that kept forms a spanning forest of (n, edges): kept
// edges never close a cycle, and every graph edge has both endpoints in
// one tree. It returns the number of trees (components).
func Check(n int, edges []graph.Edge, kept []int) (int, error) {
	uf := unionfind.New(n)
	for _, i := range kept {
		e := edges[i]
		u, v := uf.Find(int(e.U)), uf.Find(int(e.V))
		if u == v {
			return 0, fmt.Errorf("spanning: kept edge %d (%d-%d) closes a cycle", i, e.U, e.V)
		}
		uf.Link(u, v)
	}
	for _, e := range edges {
		if uf.Find(int(e.U)) != uf.Find(int(e.V)) {
			return 0, fmt.Errorf("spanning: edge %d-%d connects two trees (forest not maximal)", e.U, e.V)
		}
	}
	return uf.NumRoots(), nil
}
