// Package contract implements the paper's edge-contraction application
// (Section 5, Table 6): given a vertex relabeling R (here produced by a
// deterministic maximal matching, as in the paper's graph-separator
// driver), insert every edge with distinct relabeled endpoints into a
// hash table keyed by the endpoint pair, combining duplicate edges'
// weights with '+', then return the unique relabeled edges via
// Elements().
//
// The paper CASes the entire (two-ID key, weight) edge with a
// double-word CAS. Word-sized CAS is all Go exposes, so the packed
// element here is (u:24 bits, v:24 bits, weight:16 bits) — exact for
// graphs up to 2^24 vertices, which covers every scaled experiment
// (DESIGN.md, substitutions). core.PtrTable generalizes beyond that by
// storing edge records behind a pointer.
package contract

import (
	"sync/atomic"

	"phasehash/internal/atomicx"
	"phasehash/internal/detres"
	"phasehash/internal/graph"
	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

// MaxVertices bounds the packed-edge representation.
const MaxVertices = 1 << 24

// PackEdge builds the 64-bit element for a relabeled edge: endpoints in
// canonical order in the top 48 bits, weight in the low 16 (saturating).
func PackEdge(u, v uint32, w uint16) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<40 | uint64(v)<<16 | uint64(w)
}

// UnpackEdge inverts PackEdge.
func UnpackEdge(e uint64) (u, v uint32, w uint16) {
	return uint32(e >> 40), uint32(e>>16) & (MaxVertices - 1), uint16(e)
}

// EdgeOps is the element semantics for packed weighted edges: the key is
// the endpoint pair, duplicate edges add their weights (saturating at
// 0xffff), matching the paper's '+' combine for graph partitioning.
type EdgeOps struct{}

// Hash implements core.Ops.
func (EdgeOps) Hash(e uint64) uint64 { return hashx.Mix64(e >> 16) }

// Cmp implements core.Ops.
func (EdgeOps) Cmp(a, b uint64) int {
	ka, kb := a>>16, b>>16
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	default:
		return 0
	}
}

// Merge implements core.Ops.
func (EdgeOps) Merge(cur, new uint64) uint64 {
	w := uint64(uint16(cur)) + uint64(uint16(new))
	if w > 0xffff {
		w = 0xffff
	}
	return cur&^uint64(0xffff) | w
}

// matchStep computes a deterministic maximal matching with deterministic
// reservations: edge i reserves both endpoints; it matches iff it holds
// both (lexicographically-first maximal matching).
type matchStep struct {
	edges    []graph.Edge
	reserved []uint64
	matched  []int32 // per-vertex partner, -1 if unmatched
}

func (s *matchStep) Reserve(i int) bool {
	e := s.edges[i]
	if e.U == e.V {
		return false
	}
	if atomic.LoadInt32(&s.matched[e.U]) >= 0 || atomic.LoadInt32(&s.matched[e.V]) >= 0 {
		return false
	}
	atomicx.WriteMin(&s.reserved[e.U], uint64(i))
	atomicx.WriteMin(&s.reserved[e.V], uint64(i))
	return true
}

func (s *matchStep) Commit(i int) bool {
	e := s.edges[i]
	if atomic.LoadInt32(&s.matched[e.U]) >= 0 || atomic.LoadInt32(&s.matched[e.V]) >= 0 {
		// A neighbor matched first; this edge is done. Release any marks
		// we hold so they cannot block other edges in later rounds.
		atomic.CompareAndSwapUint64(&s.reserved[e.U], uint64(i), ^uint64(0))
		atomic.CompareAndSwapUint64(&s.reserved[e.V], uint64(i), ^uint64(0))
		return true
	}
	if atomic.LoadUint64(&s.reserved[e.U]) != uint64(i) ||
		atomic.LoadUint64(&s.reserved[e.V]) != uint64(i) {
		// Release any reservation we do hold so smaller stale marks
		// cannot deadlock later rounds.
		atomic.CompareAndSwapUint64(&s.reserved[e.U], uint64(i), ^uint64(0))
		atomic.CompareAndSwapUint64(&s.reserved[e.V], uint64(i), ^uint64(0))
		return false
	}
	atomic.StoreInt32(&s.matched[e.U], int32(e.V))
	atomic.StoreInt32(&s.matched[e.V], int32(e.U))
	atomic.StoreUint64(&s.reserved[e.U], ^uint64(0))
	atomic.StoreUint64(&s.reserved[e.V], ^uint64(0))
	return true
}

// MaximalMatching returns the per-vertex partner array (-1 = unmatched)
// of the lexicographically-first maximal matching of the edge list.
//
//phasehash:serial pre-publication init: each slot is written by exactly one worker before the speculative rounds begin
func MaximalMatching(n int, edges []graph.Edge) []int32 {
	s := &matchStep{
		edges:    edges,
		reserved: make([]uint64, n),
		matched:  make([]int32, n),
	}
	parallel.For(n, func(i int) {
		s.reserved[i] = ^uint64(0)
		s.matched[i] = -1
	})
	detres.SpeculativeFor(s, 0, len(edges), 0)
	return s.matched
}

// Relabeling turns a matching into the label array R of the paper:
// matched pairs collapse to the smaller endpoint; everything else keeps
// its own ID.
func Relabeling(matched []int32) []uint32 {
	r := make([]uint32, len(matched))
	parallel.For(len(matched), func(v int) {
		p := matched[v]
		if p >= 0 && int(p) < v {
			r[v] = uint32(p)
		} else {
			r[v] = uint32(v)
		}
	})
	return r
}

// Run performs the timed portion of one contraction round with the given
// table kind: insert every edge whose relabeled endpoints differ, summing
// duplicate weights, then return the packed unique edges. The table is
// sized at 4/3 the edge count rounded to a power of two, as in Table 6.
func Run(kind tables.Kind, edges []graph.Edge, labels []uint32, weights []uint16) []uint64 {
	size := tables.SizeFor(kind, len(edges)*4/3)
	tab := tables.MustNew[EdgeOps](kind, size)
	// Self-loops drop out of the relabeled graph. 0 never encodes a
	// surviving edge — PackEdge is 0 only for the filtered 0-0
	// self-loop — so it serves as the gap sentinel of the pack.
	packed := make([]uint64, len(edges))
	parallel.For(len(edges), func(i int) {
		e := edges[i]
		nu, nv := labels[e.U], labels[e.V]
		if nu == nv {
			return
		}
		w := uint16(1)
		if weights != nil {
			w = weights[i]
		}
		packed[i] = PackEdge(nu, nv, w)
	})
	tables.InsertAll(tab, parallel.Pack(packed, func(i int) bool { return packed[i] != 0 }))
	return tab.Elements()
}

// RunND is the paper's linearHash-ND fast path: since inserted elements
// never move, duplicate weights can be added with a direct fetch-and-add
// on the value bits instead of a full-element CAS. It exists for the
// ablation benchmark quantifying what the deterministic table pays.
// (The xadd may momentarily saturate differently than Merge; weights are
// capped well below overflow in the benchmarks.)
func RunND(edges []graph.Edge, labels []uint32, weights []uint16) []uint64 {
	size := ceilPow2(len(edges) * 4 / 3)
	tab := tables.NewLinearND[EdgeOps](size)
	parallel.ForBlocked(len(edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			nu, nv := labels[e.U], labels[e.V]
			if nu == nv {
				continue
			}
			w := uint16(1)
			if weights != nil {
				w = weights[i]
			}
			tab.Insert(PackEdge(nu, nv, w))
		}
	})
	return tab.Elements()
}

func ceilPow2(x int) int {
	m := 1
	for m < x {
		m <<= 1
	}
	return m
}
