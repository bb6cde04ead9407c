// Package delaunay builds 2-D Delaunay triangulations incrementally
// (Bowyer–Watson with walking point location) and exposes the mesh
// operations the refinement application needs: cavity computation,
// point insertion, angle tests and circumcenters.
//
// The triangulation is the *input substrate* of the paper's Table 4
// experiment (PBBS ships pre-built triangulations of the 2DinCube and
// 2Dkuzmin point sets); the timed hash-table phases live in
// internal/apps/refine. Points are inserted in Morton order with
// walk-from-last location, which makes construction effectively linear.
package delaunay

import (
	"fmt"

	"phasehash/internal/geom"
)

// NoTri marks an absent neighbor (hull edges of the bounding triangle).
const NoTri = int32(-1)

// Tri is one triangle: vertices in counter-clockwise order, and N[i] the
// neighbor across the edge opposite V[i] (the edge V[i+1]-V[i+2]).
type Tri struct {
	V     [3]int32
	N     [3]int32
	Alive bool
}

// Mesh is a triangulation under construction. The first three vertices
// are the synthetic bounding ("super") triangle's corners; triangles
// touching them are not part of the real triangulation.
type Mesh struct {
	Pts  []geom.Point
	Tris []Tri
	free []int32
	hint int32 // walk start for the next location query

	// scratch buffers reused across insertions
	scratch  *CavityBuf
	boundary []bEdge
}

type bEdge struct {
	u, w  int32 // directed boundary edge (cavity on the left)
	outer int32 // triangle across the edge, NoTri on the hull
}

// NumSuper is the number of synthetic bounding vertices.
const NumSuper = 3

// New creates a mesh over the given points plus a bounding triangle
// large enough to contain them all. The input points are not yet
// inserted; call Insert (or Build, which does everything).
func New(pts []geom.Point) *Mesh {
	lo, hi := geom.Bounds(pts)
	w := hi.X - lo.X + 1
	h := hi.Y - lo.Y + 1
	cx, cy := (lo.X+hi.X)/2, (lo.Y+hi.Y)/2
	r := 10 * (w + h)
	m := &Mesh{
		Pts: append([]geom.Point{
			{X: cx - 2*r, Y: cy - r},
			{X: cx + 2*r, Y: cy - r},
			{X: cx, Y: cy + 2*r},
		}, pts...),
		scratch: NewCavityBuf(),
	}
	m.Tris = append(m.Tris, Tri{V: [3]int32{0, 1, 2}, N: [3]int32{NoTri, NoTri, NoTri}, Alive: true})
	return m
}

// Build triangulates all points and returns the mesh. Points are
// inserted in Morton order; the result is the unique Delaunay
// triangulation (up to degenerate cocircular sets, resolved by insertion
// order, which is itself deterministic).
func Build(pts []geom.Point) *Mesh {
	m := New(pts)
	for _, i := range geom.MortonOrder(pts) {
		m.Insert(int32(i + NumSuper))
	}
	return m
}

// PointOf returns vertex v's coordinates.
func (m *Mesh) PointOf(v int32) geom.Point { return m.Pts[v] }

// IsSuper reports whether vertex v is a synthetic bounding vertex.
func IsSuper(v int32) bool { return v < NumSuper }

// IsReal reports whether triangle t is alive and free of bounding
// vertices.
func (m *Mesh) IsReal(t int32) bool {
	tr := &m.Tris[t]
	return tr.Alive && !IsSuper(tr.V[0]) && !IsSuper(tr.V[1]) && !IsSuper(tr.V[2])
}

// Locate returns an alive triangle containing p (boundary inclusive),
// walking from the hint.
func (m *Mesh) Locate(p geom.Point) int32 { return m.locateFrom(p, m.hint) }

// locateFrom returns an alive triangle containing p, walking from the
// triangle from (any alive triangle; a nearby one is faster, and an
// invalid one starts at the last alive triangle). It only reads the
// mesh, so many goroutines may locate on a quiescent mesh at once.
func (m *Mesh) locateFrom(p geom.Point, from int32) int32 {
	t := from
	if t < 0 || t >= int32(len(m.Tris)) || !m.Tris[t].Alive {
		t = m.someAlive()
	}
	steps := 0
	limit := 4*len(m.Tris) + 64
walk:
	for {
		if steps++; steps > limit {
			// Degenerate walk (should not happen with exact predicates);
			// fall back to exhaustive scan.
			return m.scanLocate(p)
		}
		tr := &m.Tris[t]
		for e := 0; e < 3; e++ {
			u := m.Pts[tr.V[(e+1)%3]]
			w := m.Pts[tr.V[(e+2)%3]]
			if geom.Orient2D(u, w, p) < 0 {
				nt := tr.N[e]
				if nt == NoTri {
					return m.scanLocate(p) // outside hull: bounding bug
				}
				t = nt
				continue walk
			}
		}
		return t
	}
}

func (m *Mesh) someAlive() int32 {
	for i := int32(len(m.Tris)) - 1; i >= 0; i-- {
		if m.Tris[i].Alive {
			return i
		}
	}
	panic("delaunay: no alive triangles")
}

func (m *Mesh) scanLocate(p geom.Point) int32 {
	for i := range m.Tris {
		tr := &m.Tris[i]
		if !tr.Alive {
			continue
		}
		if geom.Orient2D(m.Pts[tr.V[0]], m.Pts[tr.V[1]], p) >= 0 &&
			geom.Orient2D(m.Pts[tr.V[1]], m.Pts[tr.V[2]], p) >= 0 &&
			geom.Orient2D(m.Pts[tr.V[2]], m.Pts[tr.V[0]], p) >= 0 {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("delaunay: point %v not in any triangle", p))
}

// duplicateOf returns a vertex of triangle t coincident with p, or -1.
// Inserting a coincident point would create degenerate triangles, so
// Insert and InsertPoint skip duplicates.
func (m *Mesh) duplicateOf(t int32, p geom.Point) int32 {
	tr := &m.Tris[t]
	for e := 0; e < 3; e++ {
		q := m.Pts[tr.V[e]]
		if q.X == p.X && q.Y == p.Y {
			return tr.V[e]
		}
	}
	return -1
}

// Insert adds vertex v (an index into m.Pts) to the triangulation.
// Coincident duplicates of already-inserted points are skipped.
func (m *Mesh) Insert(v int32) {
	p := m.Pts[v]
	t := m.Locate(p)
	if m.duplicateOf(t, p) >= 0 {
		return
	}
	m.retriangulate(v, m.cavityAt(t, p, m.scratch))
}

// InsertPoint appends p as a new vertex and inserts it, returning the
// new vertex index and the triangles created. Used by refinement to add
// circumcenters. The location walk starts at triangle from, or at the
// hint when from is NoTri; any start gives the same mesh, and one whose
// circumcircle contains p (refinement's bad triangle) is a short walk.
// If p coincides with an existing vertex, it returns (that vertex, nil).
func (m *Mesh) InsertPoint(p geom.Point, from int32) (int32, []int32) {
	if from == NoTri {
		from = m.hint
	}
	t := m.locateFrom(p, from)
	if dup := m.duplicateOf(t, p); dup >= 0 {
		return dup, nil
	}
	v := int32(len(m.Pts))
	m.Pts = append(m.Pts, p)
	return v, m.retriangulate(v, m.cavityAt(t, p, m.scratch))
}

// InSuperTriangle reports whether p lies strictly inside the bounding
// triangle (where insertion is safe). Refinement uses it to skip
// circumcenters that escape the mesh.
func (m *Mesh) InSuperTriangle(p geom.Point) bool {
	a, b, c := m.Pts[0], m.Pts[1], m.Pts[2]
	return geom.Orient2D(a, b, p) > 0 && geom.Orient2D(b, c, p) > 0 && geom.Orient2D(c, a, p) > 0
}

// retriangulate replaces the cavity with a fan around v and returns the
// new triangle ids (valid until the next mutation; callers must copy if
// they keep it).
func (m *Mesh) retriangulate(v int32, cav []int32) []int32 {
	// Collect directed boundary edges.
	m.boundary = m.boundary[:0]
	for _, ct := range cav {
		tr := &m.Tris[ct]
		for e := 0; e < 3; e++ {
			nt := tr.N[e]
			if nt != NoTri && m.scratch.seen[nt] {
				continue
			}
			m.boundary = append(m.boundary, bEdge{
				u:     tr.V[(e+1)%3],
				w:     tr.V[(e+2)%3],
				outer: nt,
			})
		}
	}
	// Kill cavity triangles and recycle their slots.
	for _, ct := range cav {
		m.Tris[ct].Alive = false
		m.free = append(m.free, ct)
	}
	// One new triangle per boundary edge: (u, w, v), CCW.
	newIDs := make([]int32, len(m.boundary))
	for i, be := range m.boundary {
		newIDs[i] = m.alloc(Tri{
			V:     [3]int32{be.u, be.w, v},
			N:     [3]int32{NoTri, NoTri, NoTri},
			Alive: true,
		})
	}
	// Link each new triangle: across (u,w) to the outer triangle, and to
	// its two fan neighbors, found by matching edge endpoints.
	startAt := make(map[int32]int32, len(m.boundary)) // u -> new tri
	for i, be := range m.boundary {
		startAt[be.u] = newIDs[i]
	}
	for i, be := range m.boundary {
		nt := newIDs[i]
		tr := &m.Tris[nt]
		// Edge opposite v is (u,w): outer neighbor.
		tr.N[2] = be.outer
		if be.outer != NoTri {
			m.setNeighbor(be.outer, be.w, be.u, nt)
		}
		// Edge opposite u is (w,v): the fan triangle starting at w.
		tr.N[0] = startAt[be.w]
		// Edge opposite w is (v,u): the fan triangle ending at u — the
		// one that starts at some x with w' == u; equivalently the
		// triangle t' with startAt[x] and edge (x,u). Found via the
		// reverse map below.
	}
	// Second pass for the (v,u) links using the forward links: triangle
	// A's N[0] — across (w,v) — points at B, so B's N[1] — across
	// (v,u=B.u... ) — points back at A.
	for i := range m.boundary {
		a := newIDs[i]
		b := m.Tris[a].N[0]
		m.Tris[b].N[1] = a
	}
	m.hint = newIDs[0]
	return newIDs
}

// alloc reuses a free slot or appends.
func (m *Mesh) alloc(t Tri) int32 {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.Tris[id] = t
		return id
	}
	m.Tris = append(m.Tris, t)
	return int32(len(m.Tris) - 1)
}

// setNeighbor updates triangle t's neighbor pointer across the directed
// edge (u,w) (as seen from t) to nt.
func (m *Mesh) setNeighbor(t, u, w, nt int32) {
	tr := &m.Tris[t]
	for e := 0; e < 3; e++ {
		a, b := tr.V[(e+1)%3], tr.V[(e+2)%3]
		if (a == u && b == w) || (a == w && b == u) {
			tr.N[e] = nt
			return
		}
	}
	panic("delaunay: setNeighbor: edge not found")
}

// CavityBuf holds scratch for cavity computation. The mesh keeps one
// for its own insertions; CavityRO takes the caller's, letting many
// goroutines compute cavities on a quiescent mesh concurrently (the
// refinement application's reservation phase reads the mesh from every
// worker at once).
type CavityBuf struct {
	cav   []int32
	stack []int32
	seen  map[int32]bool
}

// NewCavityBuf returns an empty scratch buffer.
func NewCavityBuf() *CavityBuf {
	return &CavityBuf{seen: make(map[int32]bool, 32)}
}

// CavityRO computes the Bowyer–Watson cavity of p — the alive
// triangles whose circumcircle contains p, connected through the
// triangle containing p — into the caller's buffer, starting the
// location walk at from. Read-only and safe for concurrent use on a
// quiescent mesh. The returned slice is owned by buf.
func (m *Mesh) CavityRO(p geom.Point, from int32, buf *CavityBuf) []int32 {
	return m.cavityAt(m.locateFrom(p, from), p, buf)
}

// cavityAt grows p's cavity from t, the triangle containing p, into
// buf (deterministic DFS order); buf.seen marks its members.
func (m *Mesh) cavityAt(t int32, p geom.Point, buf *CavityBuf) []int32 {
	buf.cav = buf.cav[:0]
	buf.stack = buf.stack[:0]
	clear(buf.seen)
	buf.stack = append(buf.stack, t)
	buf.seen[t] = true
	for len(buf.stack) > 0 {
		cur := buf.stack[len(buf.stack)-1]
		buf.stack = buf.stack[:len(buf.stack)-1]
		buf.cav = append(buf.cav, cur)
		tr := &m.Tris[cur]
		for e := 0; e < 3; e++ {
			nt := tr.N[e]
			if nt == NoTri || buf.seen[nt] {
				continue
			}
			ntr := &m.Tris[nt]
			if geom.InCircle(m.Pts[ntr.V[0]], m.Pts[ntr.V[1]], m.Pts[ntr.V[2]], p) > 0 {
				buf.seen[nt] = true
				buf.stack = append(buf.stack, nt)
			}
		}
	}
	return buf.cav
}

// Neighbors3 returns triangle t's neighbor ids (NoTri entries included).
func (m *Mesh) Neighbors3(t int32) [3]int32 { return m.Tris[t].N }

// TriPoints returns the corner coordinates of triangle t.
func (m *Mesh) TriPoints(t int32) (a, b, c geom.Point) {
	tr := &m.Tris[t]
	return m.Pts[tr.V[0]], m.Pts[tr.V[1]], m.Pts[tr.V[2]]
}

// NumAlive counts alive triangles (including super-adjacent ones).
func (m *Mesh) NumAlive() int {
	n := 0
	for i := range m.Tris {
		if m.Tris[i].Alive {
			n++
		}
	}
	return n
}

// RealTriangles returns the ids of alive triangles with no bounding
// vertices — the actual triangulation.
func (m *Mesh) RealTriangles() []int32 {
	var out []int32
	for i := range m.Tris {
		if m.IsReal(int32(i)) {
			out = append(out, int32(i))
		}
	}
	return out
}

// Check validates mesh invariants: neighbor links are mutual, triangles
// are CCW, and (expensively) the Delaunay property holds for every real
// triangle against its neighbors' opposite vertices.
func (m *Mesh) Check() error {
	for i := range m.Tris {
		tr := &m.Tris[i]
		if !tr.Alive {
			continue
		}
		if geom.Orient2D(m.Pts[tr.V[0]], m.Pts[tr.V[1]], m.Pts[tr.V[2]]) <= 0 {
			return fmt.Errorf("delaunay: triangle %d not CCW", i)
		}
		for e := 0; e < 3; e++ {
			nt := tr.N[e]
			if nt == NoTri {
				continue
			}
			ntr := &m.Tris[nt]
			if !ntr.Alive {
				return fmt.Errorf("delaunay: triangle %d links dead neighbor %d", i, nt)
			}
			found := false
			for f := 0; f < 3; f++ {
				if ntr.N[f] == int32(i) {
					found = true
					// Local Delaunay: the vertex of nt opposite the
					// shared edge must not lie inside i's circumcircle.
					d := m.Pts[ntr.V[f]]
					if geom.InCircle(m.Pts[tr.V[0]], m.Pts[tr.V[1]], m.Pts[tr.V[2]], d) > 0 {
						return fmt.Errorf("delaunay: triangles %d/%d violate the Delaunay property", i, nt)
					}
				}
			}
			if !found {
				return fmt.Errorf("delaunay: neighbor link %d->%d not mutual", i, nt)
			}
		}
	}
	return nil
}
