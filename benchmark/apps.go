package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"phasehash/internal/apps/bfs"
	"phasehash/internal/apps/dedup"
	"phasehash/internal/core"
	"phasehash/internal/graph"
	"phasehash/internal/hashx"
	"phasehash/internal/obs"
	"phasehash/internal/sequence"
	"phasehash/internal/tables"
)

// runAppsDedupBFS runs the paper's remove-duplicates (Table 3) and BFS
// (Table 7) applications through the tables registry's linearHash-D: a
// repetition is one dedup.Run over exptSeq-int and one bfs.Table over a
// 3D torus. The torus is vertex-transitive, so the seed-chosen root
// changes the parents but not the level structure.
func runAppsDedupBFS(p *pass) error {
	n := p.cfg.size(1<<22, 1<<12)
	capacity := 2 * n
	elems := sequence.ExptKeys(n, p.cfg.seed)
	want := dedup.RunSorting(elems)
	ref := newKeyRef(want, uint64(n))
	side := int(math.Round(math.Cbrt(float64(p.cfg.size(1<<20, 1<<9)))))
	g := graph.Grid3D(side)
	nv := g.NumVertices()
	root := int(hashx.At(p.cfg.seed, 2) % uint64(nv))
	serial := bfs.Serial(g, root)

	_, setups := timeSetUps(func() tables.Table {
		t := tables.MustNew[core.SetOps](tables.LinearD, capacity)
		if c, ok := t.(interface{ Clear() }); ok {
			c.Clear()
		}
		return t
	})

	var firstOut []uint64
	rep := func() (dd, bd time.Duration, alloc uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := p.tr
		id := tr.begin("bench:repetition", 0, 0)
		var out []uint64
		var parents []int64
		dd = tr.call("apps:dedup.Run", id, n, func() { out = dedup.Run(tables.LinearD, elems, capacity) })
		bd = tr.call("apps:bfs.Table", id, nv, func() { parents = bfs.Table(g, root, tables.LinearD) })
		tr.end(id)
		runtime.ReadMemStats(&after)

		p.attempt(n + nv)
		bad := ref.diff(out)
		p.expect(bad == 0, bad, "dedup.Run output differs from dedup.RunSorting in %d keys", bad)
		if firstOut == nil {
			firstOut = out
			_, err := bfs.Check(g, root, parents)
			p.expect(err == nil, 1, "bfs.Table: %v", err)
		} else {
			p.expect(slices.Equal(out, firstOut), 1, "dedup.Run output order differs between repetitions")
		}
		wrong := 0
		for v := range parents {
			if parents[v] != serial[v] {
				wrong++
			}
		}
		p.expect(wrong == 0, wrong, "bfs.Table parents differ from bfs.Serial at %d vertices", wrong)
		return dd, bd, after.TotalAlloc - before.TotalAlloc
	}

	rep() // warm-up, checked but not measured
	before := obs.CoreSnapshot()
	var ops, bpk, dedupS, bfsS []float64
	b := bracketed{r: p.reference()}
	start := time.Now()
	for len(ops) < minReps || time.Since(start) < p.cfg.budget() {
		runtime.GC() // every repetition starts from the same heap state
		b.start()
		p.traceRep(len(ops))
		dd, bd, alloc := rep()
		b.done((dd + bd).Seconds() * 1e3)
		ops = append(ops, float64(n+nv))
		bpk = append(bpk, float64(alloc)/float64(len(want)+nv))
		dedupS = append(dedupS, dd.Seconds())
		bfsS = append(bfsS, bd.Seconds())
	}
	counters := obs.CoreSnapshot().Sub(before)

	p.addMedian("setup_s", setups)
	p.addRepMetrics(&b, ops, 1)
	p.addMedian("bytes_per_key", bpk)
	p.note("dedup_s", median(dedupS))
	p.note("bfs_s", median(bfsS))
	p.note("dedup.keys", float64(n))
	p.note("dedup.distinct", float64(len(want)))
	p.note("bfs.vertices", float64(nv))
	p.note("bfs.levels", float64(bfsLevels(g, root)))

	p.traceOverhead(b.reps)
	if p.tracer == nil {
		return nil
	}
	cells := tables.SizeFor(tables.LinearD, capacity)
	s := script{keys: elems, probes: halfHits(elems, uint64(n), p.cfg.seed), chunk: n, ref: ref, exactAdded: true}
	s.wantHits = ref.count(s.probes)
	var coreFirst []uint64
	var addedErr int
	tbl := core.NewWordTable[core.SetOps](cells)
	tbl.Clear()
	p.referenceSpan()
	for i := 0; i < coreReps; i++ {
		addedErr = s.rep(p, tbl, "core:WordTable", &coreFirst).addedErr
		p.referenceSpan()
	}
	p.expect(slices.Equal(coreFirst, firstOut), 1, "core:WordTable: Elements differs from dedup.Run's output")
	appLayer(p, elems, capacity, g, root, serial)
	return layerMetrics(p, layerInputs{
		core:     "WordTable",
		batch:    elems,
		shards:   1,
		cells:    cells,
		addedErr: float64(addedErr),
		counters: counters,
		unitMs:   b.reps,
	})
}

// appLayer times what the two applications are made of, for the report:
// dedup's steps through the tables registry (MustNew, the bulk insert,
// Elements), and BFS without a hash table (bfs.Array) and serially. The
// gap between them and the full applications is each table's share.
func appLayer(p *pass, elems []uint64, capacity int, g *graph.Graph, root int, serial []int64) {
	tr := p.tr
	var newS, insS, elmS, arrS, serS []float64
	for i := 0; i < coreReps; i++ {
		var tab tables.Table
		newS = append(newS, tr.call("apps:tables.MustNew", 0, capacity, func() {
			tab = tables.MustNew[core.SetOps](tables.LinearD, capacity)
		}).Seconds())
		b, _ := tables.AsBulk(tab)
		insS = append(insS, tr.call("apps:tables.Bulk.InsertAll", 0, len(elems), func() { b.InsertAll(elems) }).Seconds())
		elmS = append(elmS, tr.call("apps:tables.Table.Elements", 0, len(elems), func() { tab.Elements() }).Seconds())
		var arr, ser []int64
		arrS = append(arrS, tr.call("apps:bfs.Array", 0, g.NumVertices(), func() { arr = bfs.Array(g, root) }).Seconds())
		serS = append(serS, tr.call("apps:bfs.Serial", 0, g.NumVertices(), func() { ser = bfs.Serial(g, root) }).Seconds())
		p.attempt(2 * g.NumVertices())
		p.expect(slices.Equal(arr, serial), 1, "bfs.Array parents differ from bfs.Serial")
		p.expect(slices.Equal(ser, serial), 1, "bfs.Serial is not repeatable")
	}
	p.note("apps.dedup.new_s", median(newS))
	p.note("apps.dedup.insert_s", median(insS))
	p.note("apps.dedup.elements_s", median(elmS))
	p.note("apps.bfs.array_s", median(arrS))
	p.note("apps.bfs.serial_s", median(serS))
}

// bfsLevels counts the levels of a BFS from root.
func bfsLevels(g *graph.Graph, root int) int {
	seen := make([]bool, g.NumVertices())
	seen[root] = true
	frontier := []uint32{uint32(root)}
	levels := 0
	for len(frontier) > 0 {
		levels++
		var next []uint32
		for _, v := range frontier {
			for _, u := range g.Neighbors(int(v)) {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return levels
}
