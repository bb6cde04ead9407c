package delaunay

import (
	"reflect"
	"testing"

	"phasehash/internal/geom"
)

func TestSquareTriangulation(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	m := Build(pts)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	real := m.RealTriangles()
	if len(real) != 2 {
		t.Fatalf("square triangulated into %d real triangles, want 2", len(real))
	}
}

func TestGridPoints(t *testing.T) {
	// A k x k grid has many cocircular quadruples — the stress case for
	// the exact predicates.
	var pts []geom.Point
	k := 8
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			pts = append(pts, geom.Point{X: float64(i), Y: float64(j)})
		}
	}
	m := Build(pts)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	// Euler: a triangulation of n points with h hull vertices has
	// 2n-2-h triangles; the grid hull has 4(k-1) vertices.
	n := k * k
	h := 4 * (k - 1)
	want := 2*n - 2 - h
	if got := len(m.RealTriangles()); got != want {
		t.Fatalf("grid triangulation has %d real triangles, want %d", got, want)
	}
}

func TestRandomPointsDelaunayProperty(t *testing.T) {
	for _, gen := range []struct {
		name string
		pts  []geom.Point
	}{
		{"incube", geom.InCube(2000, 11)},
		{"kuzmin", geom.Kuzmin(1000, 13)},
	} {
		m := Build(gen.pts)
		if err := m.Check(); err != nil {
			t.Fatalf("%s: %v", gen.name, err)
		}
		real := m.RealTriangles()
		if len(real) < len(gen.pts) {
			t.Fatalf("%s: suspiciously few triangles (%d for %d points)", gen.name, len(real), len(gen.pts))
		}
	}
}

func TestDuplicatePointsSkipped(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 0, Y: 0}}
	m := Build(pts)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.RealTriangles()); got != 1 {
		t.Fatalf("got %d real triangles, want 1 (duplicates skipped)", got)
	}
}

func TestInsertPointReturnsCavityFan(t *testing.T) {
	pts := geom.InCube(500, 17)
	m := Build(pts)
	before := len(m.RealTriangles())
	v, created := m.InsertPoint(geom.Point{X: 0.5, Y: 0.5000001}, NoTri)
	if v < NumSuper {
		t.Fatal("InsertPoint returned a super vertex")
	}
	if len(created) < 3 {
		t.Fatalf("insertion created %d triangles, want >= 3", len(created))
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	after := len(m.RealTriangles())
	if after <= before {
		t.Fatalf("triangle count did not grow: %d -> %d", before, after)
	}
	// Inserting the exact same point again is a no-op duplicate.
	v2, created2 := m.InsertPoint(geom.Point{X: 0.5, Y: 0.5000001}, NoTri)
	if v2 != v || created2 != nil {
		t.Fatalf("duplicate insert returned (%d, %v), want (%d, nil)", v2, created2, v)
	}
}

// TestInsertPointStartTriangle inserts circumcenters the way
// refinement does, once walking from the triangle whose circumcircle
// holds the point and once from the hint: the start of the location
// walk must not change the mesh.
func TestInsertPointStartTriangle(t *testing.T) {
	pts := geom.InCube(2000, 19)
	from, hinted := Build(pts), Build(pts)
	inserted := 0
	for i := 0; inserted < 500; i++ {
		tri := int32(i * 7919 % len(from.Tris))
		if !from.IsReal(tri) {
			continue
		}
		cc := geom.Circumcenter(from.TriPoints(tri))
		if !from.InSuperTriangle(cc) {
			continue
		}
		from.InsertPoint(cc, tri)
		hinted.InsertPoint(cc, NoTri)
		inserted++
	}
	if err := from.Check(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(from.Pts, hinted.Pts) || !reflect.DeepEqual(from.Tris, hinted.Tris) {
		t.Fatal("inserting from the start triangle built a different mesh than walking from the hint")
	}
}

func TestLocateFindsContainingTriangle(t *testing.T) {
	pts := geom.InCube(300, 23)
	m := Build(pts)
	for i := 0; i < 50; i++ {
		p := geom.Point{X: 0.01 + 0.02*float64(i%7), Y: 0.01 + 0.013*float64(i)}
		if p.Y >= 1 {
			continue
		}
		tid := m.Locate(p)
		tr := m.Tris[tid]
		if !tr.Alive {
			t.Fatal("Locate returned a dead triangle")
		}
		// Containment check.
		a, b, c := m.Pts[tr.V[0]], m.Pts[tr.V[1]], m.Pts[tr.V[2]]
		if geom.Orient2D(a, b, p) < 0 || geom.Orient2D(b, c, p) < 0 || geom.Orient2D(c, a, p) < 0 {
			t.Fatalf("Locate(%v) returned non-containing triangle", p)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	pts := geom.InCube(1000, 31)
	a := Build(pts)
	b := Build(pts)
	if len(a.Tris) != len(b.Tris) {
		t.Fatal("triangle arrays differ in length across builds")
	}
	for i := range a.Tris {
		if a.Tris[i].Alive != b.Tris[i].Alive || a.Tris[i].V != b.Tris[i].V {
			t.Fatalf("builds differ at triangle %d", i)
		}
	}
}

func TestCollinearInput(t *testing.T) {
	// All points on a line: no real triangles, but the mesh (with super
	// vertices) must stay consistent.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	m := Build(pts)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.RealTriangles()); got != 0 {
		t.Fatalf("collinear points produced %d real triangles", got)
	}
}
