package contract

import (
	"testing"

	"phasehash/internal/graph"
	"phasehash/internal/hashx"
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

// serialGreedyMatching is the reference lexicographically-first matching.
func serialGreedyMatching(n int, edges []graph.Edge) []int32 {
	matched := make([]int32, n)
	for i := range matched {
		matched[i] = -1
	}
	for _, e := range edges {
		if e.U != e.V && matched[e.U] < 0 && matched[e.V] < 0 {
			matched[e.U] = int32(e.V)
			matched[e.V] = int32(e.U)
		}
	}
	return matched
}

func TestMaximalMatchingMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		n := 500
		edges := randomEdges(n, 1500, seed)
		want := serialGreedyMatching(n, edges)
		got := MaximalMatching(n, edges)
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("seed %d: matched[%d] = %d, want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestMatchingIsMaximal(t *testing.T) {
	n := 1000
	edges := randomEdges(n, 4000, 3)
	matched := MaximalMatching(n, edges)
	for _, e := range edges {
		if e.U != e.V && matched[e.U] < 0 && matched[e.V] < 0 {
			t.Fatalf("edge %d-%d unmatched on both ends (not maximal)", e.U, e.V)
		}
	}
	// Consistency: partners point at each other.
	for v, p := range matched {
		if p >= 0 && matched[p] != int32(v) {
			t.Fatalf("matched[%d]=%d but matched[%d]=%d", v, p, p, matched[p])
		}
	}
}

func TestPackUnpack(t *testing.T) {
	for _, c := range []struct {
		u, v uint32
		w    uint16
	}{{1, 2, 3}, {0, MaxVertices - 1, 0xffff}, {7, 7, 1}, {100000, 5, 9}} {
		u, v, w := UnpackEdge(PackEdge(c.u, c.v, c.w))
		wu, wv := c.u, c.v
		if wu > wv {
			wu, wv = wv, wu
		}
		if u != wu || v != wv || w != c.w {
			t.Fatalf("roundtrip (%d,%d,%d) -> (%d,%d,%d)", c.u, c.v, c.w, u, v, w)
		}
	}
}

// referenceContract computes the expected contracted edge multiset with a
// plain map.
func referenceContract(edges []graph.Edge, labels []uint32, weights []uint16) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for i, e := range edges {
		nu, nv := labels[e.U], labels[e.V]
		if nu == nv {
			continue
		}
		if nu > nv {
			nu, nv = nv, nu
		}
		key := uint64(nu)<<24 | uint64(nv)
		w := uint64(1)
		if weights != nil {
			w = uint64(weights[i])
		}
		out[key] += w
		if out[key] > 0xffff {
			out[key] = 0xffff
		}
	}
	return out
}

func TestRunAllKinds(t *testing.T) {
	n := 400
	edges := randomEdges(n, 2000, 7)
	labels := Relabeling(MaximalMatching(n, edges))
	want := referenceContract(edges, labels, nil)
	for _, kind := range []tables.Kind{tables.SerialHI, tables.LinearD, tables.LinearND, tables.Cuckoo, tables.ChainedCR} {
		out := Run(kind, edges, labels, nil)
		if len(out) != len(want) {
			t.Fatalf("%s: %d contracted edges, want %d", kind, len(out), len(want))
		}
		for _, e := range out {
			u, v, w := UnpackEdge(e)
			key := uint64(u)<<24 | uint64(v)
			if uint64(w) != want[key] {
				t.Fatalf("%s: edge (%d,%d) weight %d, want %d", kind, u, v, w, want[key])
			}
		}
	}
}

func TestRunDeterministicOrder(t *testing.T) {
	n := 400
	edges := randomEdges(n, 2000, 11)
	labels := Relabeling(MaximalMatching(n, edges))
	a := Run(tables.LinearD, edges, labels, nil)
	b := Run(tables.LinearD, edges, labels, nil)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("contracted edge order differs at %d", i)
		}
	}
}

func TestWeightSaturation(t *testing.T) {
	// 10 copies of the same edge with weight 30000: sum saturates at
	// 0xffff rather than wrapping.
	edges := make([]graph.Edge, 10)
	weights := make([]uint16, 10)
	for i := range edges {
		edges[i] = graph.Edge{U: 1, V: 2}
		weights[i] = 30000
	}
	labels := []uint32{0, 1, 2}
	out := Run(tables.LinearD, edges, labels, weights)
	if len(out) != 1 {
		t.Fatalf("got %d edges", len(out))
	}
	if _, _, w := UnpackEdge(out[0]); w != 0xffff {
		t.Fatalf("weight %d, want saturated 0xffff", w)
	}
}
