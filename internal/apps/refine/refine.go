// Package refine implements the paper's Delaunay-refinement application
// (Section 5, Table 4): iteratively insert circumcenters of "bad"
// triangles (minimum angle below a bound) until none remain or a point
// budget is exhausted. Refinement runs in generations. Each generation
// takes its bad set from a phase-concurrent hash table's Elements(),
// in a deterministic order, and refines it with deterministic
// reservations on detres.Run (priorities = positions in the Elements()
// output): every live bad triangle WriteMin-marks the triangles its
// insertion would affect, and the ones holding all their marks insert
// their circumcenters; the others retry. The surviving and newly
// created bad triangles enter the next generation's table through one
// tables.InsertAll phase. With a deterministic table, the whole
// refinement — including the final mesh — is deterministic.
//
// Substitution note (DESIGN.md): the paper's mesh updates run in
// parallel under Cilk; here the winners' cavity insertions are applied
// in priority order on one goroutine (they are provably disjoint, so
// the result is identical), while both hash-table phases and the
// reservation passes — the code paths Table 4 times — run in parallel.
// Boundary/encroachment handling of full Ruppert refinement is out of
// scope on random-point inputs: circumcenters falling outside the
// bounding triangle are skipped.
package refine

import (
	"math"
	"sync"
	"time"

	"phasehash/internal/atomicx"
	"phasehash/internal/core"
	"phasehash/internal/delaunay"
	"phasehash/internal/detres"
	"phasehash/internal/geom"
	"phasehash/internal/parallel"
	"phasehash/internal/tables"
)

// Config controls a refinement run.
type Config struct {
	// MinAngleDeg is the quality bound α: triangles with a smaller
	// minimum angle are bad. The classic safe bound is <= ~20-28°.
	MinAngleDeg float64
	// MaxPoints caps the number of inserted circumcenters (0 = no cap).
	MaxPoints int
	// MaxRounds caps refinement generations (0 = no cap).
	MaxRounds int
	// Kind selects the bad-triangle table implementation.
	Kind tables.Kind
}

// Stats reports a refinement run.
type Stats struct {
	// Rounds counts generations: one table of bad triangles, one
	// Elements() call and a reservation run over its output each.
	Rounds      int
	PointsAdded int
	BadInitial  int
	BadFinal    int
	// TableTime is the total wall time of the hash-table phases (each
	// generation's InsertAll plus its Elements() call) — the portion
	// the paper's Table 4 reports.
	TableTime time.Duration
	// ReserveTime is the wall time of the reservation passes (Reserve,
	// and Commit's parallel check of the marks); ApplyTime that of the
	// winners' insertions on one goroutine.
	ReserveTime, ApplyTime time.Duration
}

// noMark is the reservation array's empty value.
const noMark = ^uint64(0)

// Run refines the mesh in place and returns statistics.
func Run(m *delaunay.Mesh, cfg Config) Stats {
	r := &refiner{m: m, cfg: cfg, cosBound: math.Cos(cfg.MinAngleDeg * math.Pi / 180)}
	r.bufs.New = func() any { return delaunay.NewCavityBuf() }

	all := make([]uint64, len(m.Tris))
	parallel.For(len(all), func(i int) { all[i] = uint64(i) + 1 })
	bad := r.badSet(all)
	r.st.BadInitial = len(bad)

	for len(bad) > 0 {
		if cfg.MaxRounds > 0 && r.st.Rounds >= cfg.MaxRounds || r.capped() {
			break
		}
		r.st.Rounds++
		added, applied := r.st.PointsAdded, r.st.ApplyTime
		r.startGeneration(bad)
		start := time.Now()
		detres.Run(r, 0, len(bad), 0)
		r.st.ReserveTime += time.Since(start) - (r.st.ApplyTime - applied)

		// Next bad set: the created triangles and this generation's
		// iterates that are still bad (the unrefinable ones, and any
		// left when the point budget ran out).
		r.created = append(r.created, bad...)
		bad = r.badSet(r.created)

		// Progress guard: every refinable bad triangle commits within
		// its generation, so a generation that adds no point leaves
		// only triangles whose circumcenters escape the domain — no
		// further progress is possible without boundary handling.
		if r.st.PointsAdded == added {
			break
		}
	}
	r.st.BadFinal = len(bad)
	return r.st
}

// refiner is Run's state across generations and its detres round
// body. An iterate is a position in the generation's bad set, which is
// also its priority.
type refiner struct {
	m        *delaunay.Mesh
	cfg      Config
	cosBound float64
	st       Stats
	bufs     sync.Pool // *delaunay.CavityBuf per reserving block

	bad     []uint64 // the generation's bad set: triangle id + 1, in Elements() order
	created []uint64 // triangles the generation's insertions made, id + 1
	// Per iterate, kept across generations: the circumcenter and the
	// triangles reserved (cavity, then each cavity triangle's neighbours).
	centers  []geom.Point
	reserved [][]int32
	// marks holds one reservation word per triangle, kept across rounds
	// and generations. A mark is the round stamp's complement above the
	// iterate, so every stale mark loses WriteMin to the current round
	// and no round resets the array.
	marks []uint64
	stamp uint32
}

// startGeneration makes bad the iterates, growing the per-iterate
// buffers to its size.
func (r *refiner) startGeneration(bad []uint64) {
	r.bad, r.created = bad, r.created[:0]
	if n := len(bad) - len(r.reserved); n > 0 {
		r.centers = append(r.centers, make([]geom.Point, n)...)
		r.reserved = append(r.reserved, make([][]int32, n)...)
	}
}

// badSet keeps the candidates (triangle id + 1) that are bad, inserts
// them into a fresh table in one phase and returns its Elements(): the
// next generation's iterates. The two table phases are timed.
func (r *refiner) badSet(cands []uint64) []uint64 {
	keep := parallel.Pack(cands, func(i int) bool { return r.isBad(int32(cands[i] - 1)) })
	// Sized as the paper does for Table 4: twice the bad triangles,
	// rounded up to a power of two.
	tab := tables.MustNew[core.SetOps](r.cfg.Kind, tables.SizeFor(r.cfg.Kind, 2*len(keep)+2))
	start := time.Now()
	tables.InsertAll(tab, keep)
	bad := tab.Elements()
	r.st.TableTime += time.Since(start)
	return bad
}

func (r *refiner) isBad(t int32) bool {
	if !r.m.IsReal(t) {
		return false
	}
	a, b, c := r.m.TriPoints(t)
	return geom.MinAngleCos(a, b, c) > r.cosBound
}

func (r *refiner) capped() bool {
	return r.cfg.MaxPoints > 0 && r.st.PointsAdded >= r.cfg.MaxPoints
}

// mark is iterate i's reservation word in the current round.
func (r *refiner) mark(i int) uint64 {
	return uint64(math.MaxUint32-r.stamp)<<32 | uint64(i)
}

// Reserve drops the iterates whose triangle is gone or no longer bad
// (another cavity took it) or whose circumcenter leaves the domain,
// and has every other one WriteMin-mark its cavity and the cavity's
// neighbours. Once the point budget is spent it drops them all.
func (r *refiner) Reserve(active []int, done []bool) {
	if r.capped() {
		for j := range done {
			done[j] = true
		}
		return
	}
	r.growMarks()
	r.stamp++
	parallel.ForBlocked(len(active), 0, func(lo, hi int) {
		buf := r.bufs.Get().(*delaunay.CavityBuf)
		defer r.bufs.Put(buf)
		for j := lo; j < hi; j++ {
			done[j] = !r.reserve(active[j], buf)
		}
	})
}

func (r *refiner) reserve(i int, buf *delaunay.CavityBuf) bool {
	t := int32(r.bad[i] - 1)
	if !r.isBad(t) {
		return false
	}
	cc := geom.Circumcenter(r.m.TriPoints(t))
	if !r.m.InSuperTriangle(cc) {
		return false // unrefinable without boundary handling
	}
	r.centers[i] = cc
	own := r.reserved[i][:0]
	for _, ct := range r.m.CavityRO(cc, t, buf) {
		own = append(own, ct)
		for _, nt := range r.m.Neighbors3(ct) {
			if nt != delaunay.NoTri {
				own = append(own, nt)
			}
		}
	}
	r.reserved[i] = own
	mark := r.mark(i)
	for _, x := range own {
		atomicx.WriteMin(&r.marks[x], mark)
	}
	return true
}

// growMarks covers triangles the last round's insertions appended.
//
//phasehash:serial runs between rounds: no reservation is in flight while the array grows
func (r *refiner) growMarks() {
	for len(r.marks) < len(r.m.Tris) {
		r.marks = append(r.marks, noMark)
	}
}

// Commit finds the winners — the iterates holding every mark they
// wrote — in parallel, then inserts their circumcenters in priority
// order on one goroutine. Winners' reserved triangles are disjoint, so
// this order gives the mesh any parallel schedule would. Winners left
// when the point budget runs out stay live; the next Reserve drops
// them.
func (r *refiner) Commit(active []int, done []bool) {
	parallel.ForBlocked(len(active), 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			done[j] = r.holds(active[j])
		}
	})
	start := time.Now()
	for j, i := range active {
		if !done[j] {
			continue
		}
		if r.capped() {
			done[j] = false
			continue
		}
		// The bad triangle's circumcircle holds its circumcenter, so
		// the location walk starts next to it.
		_, tris := r.m.InsertPoint(r.centers[i], int32(r.bad[i]-1))
		for _, nt := range tris {
			r.created = append(r.created, uint64(nt)+1)
		}
		r.st.PointsAdded++
	}
	r.st.ApplyTime += time.Since(start)
}

func (r *refiner) holds(i int) bool {
	mark := r.mark(i)
	for _, x := range r.reserved[i] {
		if atomicx.Load(&r.marks[x]) != mark {
			return false
		}
	}
	return true
}

// CountBad counts bad triangles in the mesh for a given angle bound —
// used by tests and the example to confirm refinement progress.
func CountBad(m *delaunay.Mesh, minAngleDeg float64) int {
	cosBound := math.Cos(minAngleDeg * math.Pi / 180)
	n := 0
	for _, t := range m.RealTriangles() {
		a, b, c := m.TriPoints(t)
		if geom.MinAngleCos(a, b, c) > cosBound {
			n++
		}
	}
	return n
}
