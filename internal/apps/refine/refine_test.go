package refine

import (
	"reflect"
	"testing"

	"phasehash/internal/delaunay"
	"phasehash/internal/geom"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

func TestRefinementImprovesQuality(t *testing.T) {
	pts := geom.InCube(2000, 7)
	m := delaunay.Build(pts)
	before := CountBad(m, 25)
	if before == 0 {
		t.Skip("input already refined (unexpected for random points)")
	}
	st := Run(m, Config{MinAngleDeg: 25, MaxPoints: 20000, Kind: tables.LinearD})
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if st.BadInitial != before {
		t.Errorf("BadInitial = %d, CountBad said %d", st.BadInitial, before)
	}
	after := CountBad(m, 25)
	if after >= before/2 {
		t.Errorf("bad triangles %d -> %d; refinement barely progressed", before, after)
	}
	if st.PointsAdded == 0 {
		t.Error("no points added")
	}
	if st.TableTime <= 0 {
		t.Error("TableTime not recorded")
	}
}

func TestRefinementDeterministic(t *testing.T) {
	pts := geom.InCube(800, 9)
	run := func() (*delaunay.Mesh, Stats) {
		m := delaunay.Build(pts)
		st := Run(m, Config{MinAngleDeg: 22, MaxPoints: 5000, MaxRounds: 10, Kind: tables.LinearD})
		return m, st
	}
	m1, s1 := run()
	m2, s2 := run()
	if s1.PointsAdded != s2.PointsAdded || s1.Rounds != s2.Rounds {
		t.Fatalf("stats differ across runs: %+v vs %+v", s1, s2)
	}
	if len(m1.Pts) != len(m2.Pts) {
		t.Fatalf("point counts differ: %d vs %d", len(m1.Pts), len(m2.Pts))
	}
	for i := range m1.Pts {
		if m1.Pts[i] != m2.Pts[i] {
			t.Fatalf("inserted point %d differs: %v vs %v", i, m1.Pts[i], m2.Pts[i])
		}
	}
}

func TestRefinementOtherTables(t *testing.T) {
	// Non-deterministic tables must still converge to a valid mesh with
	// no bad triangles (the *set* of bad triangles per round is the
	// same; only the order differs, which changes which points get
	// added but not validity).
	for _, kind := range []tables.Kind{tables.LinearND, tables.Cuckoo, tables.ChainedCR} {
		pts := geom.InCube(500, 11)
		m := delaunay.Build(pts)
		st := Run(m, Config{MinAngleDeg: 20, MaxPoints: 10000, Kind: kind})
		if err := m.Check(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if st.PointsAdded == 0 {
			t.Fatalf("%s: no progress", kind)
		}
	}
}

func TestKuzminInput(t *testing.T) {
	pts := geom.Kuzmin(800, 13)
	m := delaunay.Build(pts)
	st := Run(m, Config{MinAngleDeg: 20, MaxPoints: 8000, MaxRounds: 30, Kind: tables.LinearD})
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if st.PointsAdded == 0 && st.BadInitial > 0 {
		t.Error("kuzmin refinement made no progress")
	}
}

func TestMaxRoundsHonored(t *testing.T) {
	pts := geom.InCube(1000, 15)
	m := delaunay.Build(pts)
	st := Run(m, Config{MinAngleDeg: 28, MaxRounds: 2, Kind: tables.LinearD})
	if st.Rounds > 2 {
		t.Fatalf("Rounds = %d, cap was 2", st.Rounds)
	}
}

// TestRefinedMeshDeterministic refines to completion with linearHash-D
// twice and at 1, 2 and 4 workers, and with serialHash-HI, whose layout
// and so whose Elements() order equal linearHash-D's: every run must
// leave the same points and triangles. Under -race it also checks that
// the sequential kind's inserts stay on one goroutine.
func TestRefinedMeshDeterministic(t *testing.T) {
	for _, in := range []struct {
		name string
		pts  []geom.Point
	}{
		{"incube", geom.InCube(1500, 21)},
		{"kuzmin", geom.Kuzmin(1500, 23)},
	} {
		refined := func(kind tables.Kind, workers int) *delaunay.Mesh {
			defer parallel.SetNumWorkers(parallel.SetNumWorkers(workers))
			m := delaunay.Build(in.pts)
			Run(m, Config{MinAngleDeg: 20, Kind: kind})
			return m
		}
		want := refined(tables.LinearD, 0)
		if err := want.Check(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if len(want.Pts) == len(in.pts)+delaunay.NumSuper {
			t.Fatalf("%s: refinement added no point", in.name)
		}
		for _, run := range []struct {
			kind    tables.Kind
			workers int
		}{
			{tables.LinearD, 0}, {tables.LinearD, 1}, {tables.LinearD, 2}, {tables.LinearD, 4},
			{tables.SerialHI, 0},
		} {
			got := refined(run.kind, run.workers)
			if !reflect.DeepEqual(got.Pts, want.Pts) || !reflect.DeepEqual(got.Tris, want.Tris) {
				t.Errorf("%s: %s at %d workers refined to a different mesh (%d points, want %d)",
					in.name, run.kind, run.workers, len(got.Pts), len(want.Pts))
			}
		}
	}
}
