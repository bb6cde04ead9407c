// Delaunay refinement: the paper's flagship application (Section 5).
// Bad triangles (minimum angle below a bound) live in a deterministic
// hash table; every iteration obtains them with Elements(), inserts the
// circumcenters of a non-conflicting prefix (deterministic
// reservations), and inserts the new bad triangles. Because Elements()
// is deterministic, the final mesh is the same on every run.
//
//	go run ./examples/delaunay [-points 100000] [-angle 25]
package main

import (
	"flag"
	"fmt"
	"time"

	"phasehash/internal/apps/refine"
	"phasehash/internal/delaunay"
	"phasehash/internal/geom"
	"phasehash/internal/tables"
)

func main() {
	points := flag.Int("points", 100_000, "input points (2DinCube)")
	angle := flag.Float64("angle", 25, "minimum-angle bound α in degrees")
	flag.Parse()

	pts := geom.InCube(*points, 42)
	start := time.Now()
	mesh := delaunay.Build(pts)
	fmt.Printf("triangulated %d points in %v (%d triangles)\n",
		*points, time.Since(start).Round(time.Millisecond), len(mesh.RealTriangles()))

	before := refine.CountBad(mesh, *angle)
	start = time.Now()
	st := refine.Run(mesh, refine.Config{MinAngleDeg: *angle, Kind: tables.LinearD})
	elapsed := time.Since(start)

	fmt.Printf("refined in %v: %d generations, %d points added\n",
		elapsed.Round(time.Millisecond), st.Rounds, st.PointsAdded)
	fmt.Printf("bad triangles: %d -> %d (angle bound %.0f°)\n", before, st.BadFinal, *angle)
	fmt.Printf("hash-table portion (InsertAll + Elements): %v; reservations %v; apply %v\n",
		st.TableTime.Round(time.Millisecond), st.ReserveTime.Round(time.Millisecond), st.ApplyTime.Round(time.Millisecond))

	if err := mesh.Check(); err != nil {
		panic(err)
	}
	fmt.Println("mesh invariants verified (CCW, mutual adjacency, Delaunay property)")
}
