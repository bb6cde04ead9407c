package suffix

import (
	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

// Tree is a suffix tree over a text. Structure (parents, string depths)
// is built sequentially from the suffix and LCP arrays with the classic
// stack algorithm; the *child index* — the data structure the paper's
// Table 5 benchmarks — is a hash table mapping (node, first byte of
// edge) to the child node, filled by a parallel insert phase
// (BuildIndex) and queried by parallel find phases (Search).
//
// Node numbering: leaf j in [0, n) corresponds to suffix sa[j]; internal
// nodes get ids >= n. The root is node n.
type Tree struct {
	Text []byte
	SA   []int32

	// Per-node structure, indexed by node id.
	Parent []int32
	Depth  []int32 // string depth (root 0; leaf j: n - sa[j])
	Rep    []int32 // representative suffix start (label decoding)

	Root  int32
	index tables.Table
}

// edgeElement packs a child-index entry: key = (parent:29, char:8),
// value = child:27 bits. 29 bits of parent id covers texts to ~256M
// nodes; 27 bits of child also bounds text size (documented in
// DESIGN.md).
func edgeElement(parent int32, ch byte, child int32) uint64 {
	return uint64(parent)<<35 | uint64(ch)<<27 | uint64(child)
}

// edgeKey builds the lookup element for (parent, char).
func edgeKey(parent int32, ch byte) uint64 {
	return uint64(parent)<<35 | uint64(ch)<<27
}

func edgeChild(e uint64) int32 { return int32(e & (1<<27 - 1)) }

// EdgeOps is the element semantics for the child index: the key is the
// (parent, char) pair in the top 37 bits.
type EdgeOps struct{}

// Hash implements core.Ops.
func (EdgeOps) Hash(e uint64) uint64 { return hashx.Mix64(e >> 27) }

// Cmp implements core.Ops.
func (EdgeOps) Cmp(a, b uint64) int {
	ka, kb := a>>27, b>>27
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	default:
		return 0
	}
}

// Merge implements core.Ops. Edge keys are unique within a suffix tree,
// so Merge is never exercised on distinct children; keep the incumbent.
func (EdgeOps) Merge(cur, _ uint64) uint64 { return cur }

// New builds the suffix tree structure for text (terminator-free input;
// a 0 byte is appended internally so no suffix is a prefix of another).
// The child index is NOT yet built; call BuildIndex, whose cost is what
// Table 5(a) measures.
func New(text []byte) *Tree {
	s := make([]byte, len(text)+1)
	copy(s, text)
	// s ends with the implicit 0 terminator.
	sa := Array(s)
	lcp := LCPArray(s, sa)
	n := len(s)

	t := &Tree{Text: s, SA: sa}
	// Leaves 0..n-1; internal nodes appended from n.
	t.Parent = make([]int32, n, 2*n)
	t.Depth = make([]int32, n, 2*n)
	t.Rep = make([]int32, n, 2*n)
	for j := 0; j < n; j++ {
		t.Parent[j] = -1
		t.Depth[j] = int32(n) - sa[j]
		t.Rep[j] = sa[j]
	}
	newNode := func(depth, rep int32) int32 {
		id := int32(len(t.Parent))
		t.Parent = append(t.Parent, -1)
		t.Depth = append(t.Depth, depth)
		t.Rep = append(t.Rep, rep)
		return id
	}
	root := newNode(0, sa[0])
	t.Root = root

	// Stack algorithm: the stack holds the rightmost path, depths
	// strictly increasing; a node's parent is assigned when it is
	// popped. For each new leaf with LCP value l against the previous
	// suffix, pop nodes deeper than l, attaching each to the node below
	// it, splitting the last edge with a fresh internal node at depth l
	// when the path has no node at that exact depth.
	stack := []int32{root}
	for j := 0; j < n; j++ {
		l := int32(0)
		if j > 0 {
			l = lcp[j]
		}
		for t.Depth[stack[len(stack)-1]] > l {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			y := stack[len(stack)-1]
			if t.Depth[y] >= l {
				t.Parent[x] = y
				continue
			}
			// depth(y) < l < depth(x): split x's edge with a node at
			// depth l; the new node joins the rightmost path in x's
			// place (its own parent is assigned when it is popped).
			mid := newNode(l, t.Rep[x])
			t.Parent[x] = mid
			stack = append(stack, mid)
			break
		}
		stack = append(stack, int32(j))
	}
	for len(stack) > 1 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.Parent[x] = stack[len(stack)-1]
	}
	return t
}

// NumNodes returns the total node count (leaves + internals).
func (t *Tree) NumNodes() int { return len(t.Parent) }

// BuildIndex fills the child index using a table of the given kind and
// returns it; building the edge elements and their one insert phase
// (tables.InsertAll) are the timed portion of Table 5(a). The table is sized at twice the node count rounded up to a power
// of two, as in the paper.
func (t *Tree) BuildIndex(kind tables.Kind) tables.Table {
	tab := tables.MustNew[EdgeOps](kind, tables.SizeFor(kind, 2*t.NumNodes()))
	// 0 never encodes an edge (it would be node 0 as its own child), so
	// it marks the nodes without a parent, which the pack drops.
	elems := make([]uint64, t.NumNodes())
	parallel.For(len(elems), func(v int) {
		p := t.Parent[v]
		if p < 0 {
			return // root (or the pre-root placeholder)
		}
		ch := t.Text[t.Rep[v]+t.Depth[p]]
		elems[v] = edgeElement(p, ch, int32(v))
	})
	tables.InsertAll(tab, parallel.Pack(elems, func(v int) bool { return elems[v] != 0 }))
	t.index = tab
	return tab
}

// Index returns the child index (nil before BuildIndex).
func (t *Tree) Index() tables.Table { return t.index }

// Child looks up the child of node p whose edge starts with ch.
func (t *Tree) Child(p int32, ch byte) (int32, bool) {
	e, ok := t.index.Find(edgeKey(p, ch))
	if !ok {
		return -1, false
	}
	return edgeChild(e), true
}

// Contains reports whether pattern occurs in the text, walking the tree
// with child-index finds (a pure find phase; Table 5(b)).
func (t *Tree) Contains(pattern []byte) bool {
	if len(pattern) == 0 {
		return true
	}
	node := t.Root
	matched := int32(0)
	for {
		child, ok := t.Child(node, pattern[matched])
		if !ok {
			return false
		}
		// Compare along the edge label.
		lo := t.Rep[child] + t.Depth[node]
		hi := t.Rep[child] + t.Depth[child]
		for p := lo; p < hi; p++ {
			if matched == int32(len(pattern)) {
				return true
			}
			if t.Text[p] != pattern[matched] {
				return false
			}
			matched++
		}
		if matched == int32(len(pattern)) {
			return true
		}
		node = child
	}
}
