package phasehash

// Integration tests: cross-module end-to-end checks that the paper's
// applications produce consistent, deterministic results through the
// public API and across all table implementations, on all three graph
// generators and both geometry inputs. These complement the per-package
// unit tests by exercising the exact module compositions the benchmark
// harness uses.

import (
	"sync"
	"testing"

	"phasehash/internal/apps/bfs"
	"phasehash/internal/apps/refine"
	"phasehash/internal/apps/spanning"
	"phasehash/internal/bench"
	"phasehash/internal/delaunay"
	"phasehash/internal/geom"
	"phasehash/internal/graph"
	"phasehash/internal/sequence"
	"phasehash/internal/tables"
)

func TestIntegrationBFSAcrossGraphsAndTables(t *testing.T) {
	for _, in := range bench.GraphInputs(5000) {
		want := bfs.Serial(in.G, 0)
		for _, kind := range bench.AppKinds {
			got := bfs.Table(in.G, 0, kind)
			if _, err := bfs.Check(in.G, 0, got); err != nil {
				t.Fatalf("%s/%s: %v", in.Name, kind, err)
			}
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("%s/%s: BFS tree differs at %d", in.Name, kind, v)
				}
			}
		}
	}
}

func TestIntegrationSpanningAcrossGraphs(t *testing.T) {
	for _, in := range bench.GraphInputs(5000) {
		n := in.G.NumVertices()
		want := spanning.Serial(n, in.Edges)
		gotA := spanning.Array(n, in.Edges)
		gotT := spanning.Table(n, in.Edges, tables.LinearD)
		if len(want) != len(gotA) || len(want) != len(gotT) {
			t.Fatalf("%s: forest sizes differ: %d %d %d", in.Name, len(want), len(gotA), len(gotT))
		}
		for i := range want {
			if want[i] != gotA[i] || want[i] != gotT[i] {
				t.Fatalf("%s: forests differ at %d", in.Name, i)
			}
		}
	}
}

func TestIntegrationRefinementBothGeometries(t *testing.T) {
	for _, in := range bench.Table4Inputs(3000) {
		m := delaunay.Build(in.Pts)
		st := refine.Run(m, refine.Config{MinAngleDeg: 22, MaxPoints: 20000, Kind: tables.LinearD})
		if err := m.Check(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if st.BadInitial > 0 && st.PointsAdded == 0 {
			t.Fatalf("%s: refinement stalled", in.Name)
		}
	}
}

// TestIntegrationPublicAPIDeterministicPipeline runs a small data
// pipeline through the public API twice and demands bit-identical
// intermediate and final results: the library's headline guarantee.
func TestIntegrationPublicAPIDeterministicPipeline(t *testing.T) {
	run := func() ([]uint64, []StringEntry, []Entry) {
		// Stage 1: dedup integer records.
		set := NewSet(1 << 14)
		keys := sequence.RandomKeys(10000, 77)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(keys); i += 6 {
					set.Insert(keys[i])
				}
			}(w)
		}
		wg.Wait()
		distinct := set.Elements()

		// Stage 2: count trigram words keyed by strings.
		words := sequence.TrigramWords(20000, 99)
		sm := NewStringMap(1<<16, Sum)
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(words); i += 6 {
					sm.Insert(words[i], 1)
				}
			}(w)
		}
		wg.Wait()
		counts := sm.Entries()

		// Stage 3: keep the minimum value per bucket with Map32.
		m := NewMap32(1<<12, KeepMin)
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(distinct); i += 6 {
					m.Insert(uint32(distinct[i]%997)+1, uint32(distinct[i]))
				}
			}(w)
		}
		wg.Wait()
		return distinct, counts, m.Entries()
	}
	d1, c1, e1 := run()
	d2, c2, e2 := run()
	if len(d1) != len(d2) || len(c1) != len(c2) || len(e1) != len(e2) {
		t.Fatal("pipeline stage lengths differ across runs")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("stage 1 differs at %d", i)
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("stage 2 differs at %d", i)
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("stage 3 differs at %d", i)
		}
	}
}

func TestIntegrationGrowSet(t *testing.T) {
	s := NewGrowSet(64)
	keys := sequence.RandomKeys(50000, 5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 8 {
				s.Insert(keys[i])
			}
		}(w)
	}
	wg.Wait()
	distinct := map[uint64]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	if s.Count() != len(distinct) {
		t.Fatalf("GrowSet Count = %d, want %d", s.Count(), len(distinct))
	}
	if s.Capacity() < len(distinct) {
		t.Fatalf("GrowSet did not grow: capacity %d", s.Capacity())
	}
	for k := range distinct {
		if !s.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestIntegrationGraphBuildersFeedApps(t *testing.T) {
	// Sanity that every generated graph works through every app path at
	// tiny scale (smoke for the bench harness wiring).
	for _, name := range graph.Names {
		g, err := graph.Build(name, 300, 9)
		if err != nil {
			t.Fatal(err)
		}
		parents := bfs.Array(g, 0)
		if _, err := bfs.Check(g, 0, parents); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	pts := geom.Kuzmin(200, 3)
	m := delaunay.Build(pts)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}
