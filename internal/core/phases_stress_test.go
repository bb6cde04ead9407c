package core

import (
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/parallel"
)

// TestPhaseAlternationStress drives the deterministic table through many
// randomly generated insert/delete/read phases, checking after every
// phase barrier that (a) the contents equal a model set, (b) the
// ordering invariant holds, and (c) the layout is byte-identical to an
// independent replay — the strongest end-to-end statement of the
// paper's determinism theorem over arbitrary phase histories.
func TestPhaseAlternationStress(t *testing.T) {
	const (
		tableSize = 1 << 12
		phases    = 40
		batch     = 600
		keyspace  = 3000
	)
	runOnce := func(seed uint64) ([]uint64, map[uint64]bool) {
		tab := NewWordTable[SetOps](tableSize)
		model := map[uint64]bool{}
		rng := hashx.NewRNG(seed)
		for ph := 0; ph < phases; ph++ {
			kind := rng.Intn(3)
			keys := make([]uint64, batch)
			for i := range keys {
				keys[i] = uint64(rng.Intn(keyspace)) + 1
			}
			switch kind {
			case 0: // insert phase
				parallel.ForGrain(batch, 1, func(i int) { tab.Insert(keys[i]) })
				for _, k := range keys {
					model[k] = true
				}
			case 1: // delete phase
				parallel.ForGrain(batch, 1, func(i int) { tab.Delete(keys[i]) })
				for _, k := range keys {
					delete(model, k)
				}
			default: // read phase: concurrent finds and elements
				parallel.Do(
					func() {
						parallel.ForGrain(batch, 1, func(i int) {
							_, found := tab.Find(keys[i])
							if found != model[keys[i]] {
								t.Errorf("phase %d: Find(%d) = %v, model %v", ph, keys[i], found, model[keys[i]])
							}
						})
					},
					func() {
						if got := len(tab.Elements()); got != len(model) {
							t.Errorf("phase %d: Elements len %d, model %d", ph, got, len(model))
						}
					},
				)
			}
			// Quiescent checks after the phase barrier.
			if err := tab.CheckInvariant(); err != nil {
				t.Fatalf("phase %d (%d): %v", ph, kind, err)
			}
			if got := tab.Count(); got != len(model) {
				t.Fatalf("phase %d (%d): Count %d, model %d", ph, kind, got, len(model))
			}
		}
		return tab.Snapshot(), model
	}

	for _, seed := range []uint64{1, 2, 3} {
		snap1, model1 := runOnce(seed)
		snap2, model2 := runOnce(seed)
		if len(model1) != len(model2) {
			t.Fatalf("seed %d: model sizes differ (test bug)", seed)
		}
		for i := range snap1 {
			if snap1[i] != snap2[i] {
				t.Fatalf("seed %d: replay layout differs at cell %d", seed, i)
			}
		}
		// The layout must also equal a fresh sequential build of the
		// final model set (full history independence).
		ref := NewWordTable[SetOps](tableSize)
		for k := range model1 {
			ref.Insert(k)
		}
		refSnap := ref.Snapshot()
		for i := range refSnap {
			if refSnap[i] != snap1[i] {
				t.Fatalf("seed %d: final layout differs from fresh build at cell %d", seed, i)
			}
		}
	}
}

// TestPhaseAlternationStressPtr is the same stress over the pointer
// table.
func TestPhaseAlternationStressPtr(t *testing.T) {
	const (
		tableSize = 1 << 11
		phases    = 25
		batch     = 400
		keyspace  = 1500
	)
	tab := NewPtrTable[rec, recOps](tableSize)
	model := map[uint64]bool{}
	rng := hashx.NewRNG(7)
	for ph := 0; ph < phases; ph++ {
		kind := rng.Intn(3)
		keys := make([]uint64, batch)
		for i := range keys {
			keys[i] = uint64(rng.Intn(keyspace)) + 1
		}
		switch kind {
		case 0:
			parallel.ForGrain(batch, 1, func(i int) { tab.Insert(&rec{key: keys[i]}) })
			for _, k := range keys {
				model[k] = true
			}
		case 1:
			parallel.ForGrain(batch, 1, func(i int) { tab.Delete(&rec{key: keys[i]}) })
			for _, k := range keys {
				delete(model, k)
			}
		default:
			parallel.ForGrain(batch, 1, func(i int) {
				_, found := tab.Find(&rec{key: keys[i]})
				if found != model[keys[i]] {
					t.Errorf("phase %d: Find(%d) = %v, model %v", ph, keys[i], found, model[keys[i]])
				}
			})
		}
		if err := tab.CheckInvariant(); err != nil {
			t.Fatalf("phase %d (%d): %v", ph, kind, err)
		}
		if got := tab.Count(); got != len(model) {
			t.Fatalf("phase %d (%d): Count %d, model %d", ph, kind, got, len(model))
		}
	}
}

// TestGrowTablePhaseAlternation stresses the resizing table across
// alternating phases (grow during inserts, then deletes, then reads).
func TestGrowTablePhaseAlternation(t *testing.T) {
	g := NewGrowTable[SetOps](64)
	model := map[uint64]bool{}
	rng := hashx.NewRNG(11)
	for ph := 0; ph < 20; ph++ {
		batch := 2000
		keys := make([]uint64, batch)
		for i := range keys {
			keys[i] = uint64(rng.Intn(20000)) + 1
		}
		if ph%3 == 2 {
			parallel.ForGrain(batch, 1, func(i int) {
				_, found := g.Find(keys[i])
				if found != model[keys[i]] {
					t.Errorf("phase %d: Find(%d) = %v, model %v", ph, keys[i], found, model[keys[i]])
				}
			})
		} else if ph%3 == 1 {
			parallel.ForGrain(batch, 1, func(i int) { g.Delete(keys[i]) })
			for _, k := range keys {
				delete(model, k)
			}
		} else {
			parallel.ForGrain(batch, 1, func(i int) { g.Insert(keys[i]) })
			for _, k := range keys {
				model[k] = true
			}
		}
		if got := g.Count(); got != len(model) {
			t.Fatalf("phase %d: Count %d, model %d", ph, got, len(model))
		}
		if err := g.CheckInvariant(); err != nil {
			t.Fatalf("phase %d: %v", ph, err)
		}
	}
}
