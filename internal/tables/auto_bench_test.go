package tables

import (
	"runtime"
	"testing"

	"phasehash/internal/core"
	"phasehash/internal/obs"
	"phasehash/internal/sequence"
)

// Tuned-vs-static benchmark: the steady-state bulk find phase over the
// six EXPERIMENTS.md key distributions, on the two static layouts
// (linearHash-D flat, linearHash-D-compact) and the self-tuning
// linearHash-D-auto kind. Each cell fills a fixed-capacity table from
// the distribution's stream, then times FindAll over a second stream
// from the same distribution (a different seed), so the probe mix has
// the hits and misses the distribution itself produces.
//
// The fill lengths split the regime on purpose. The pairInt streams
// store (under SetOps, which keys on the whole packed word) nearly
// every element — random values make duplicates vanishing — so a
// 0.9*cells stream lands at load 0.9, where the compact ctrl-array
// scan wins probes (see internal/core/compact_bench_test.go). The
// plain-int streams repeat keys: uniform keys in [1,n] store ~63% of
// the stream, so 10/7*cells lands randomSeq-int at ~0.9 load too,
// while the exponential and trigram streams are duplicate-heavy and
// stay far below the compact threshold — flat's regime. A static
// default is therefore wrong somewhere either way; the auto kind's job
// is to sit within noise of the per-cell winner on every row, which is
// what BENCH_core.json records and EXPERIMENTS.md tabulates. Auto
// decides from its live load tally and find share at bulk boundaries;
// the third warm pass is the boundary where a compact-regime cell's
// find share crosses CompactFindSharePm, so migration happens
// before the timer starts and the timed loop runs on the layout the
// cell's own telemetry picked.
const autoBenchCells = 1 << 17

// autoBenchFillN returns the fill-stream length that lands the
// distribution near its regime's target load at autoBenchCells (see
// the comment above for the per-distribution arithmetic).
func autoBenchFillN(d sequence.Distribution) int {
	switch d {
	case sequence.RandomPairInt, sequence.ExptPairInt, sequence.TrigramPairInt:
		return autoBenchCells * 9 / 10
	default:
		return autoBenchCells * 10 / 7
	}
}

// autoBenchStream maps the two string-keyed distributions to hashed
// word keys (the EXPERIMENTS.md substitution, as in detres).
func autoBenchStream(d sequence.Distribution, n int, seed uint64) []uint64 {
	switch d {
	case sequence.TrigramStr:
		return sequence.TrigramKeys(n, seed)
	case sequence.TrigramPairInt:
		return sequence.TrigramKeyPairs(n, seed)
	default:
		return sequence.WordElements(d, n, seed)
	}
}

// autoBenchKinds are the compared configurations: the static layouts
// the hand-tuned rows pin, and the self-tuning kind.
var autoBenchKinds = []Kind{LinearD, LinearDCompact, LinearDAuto}

func BenchmarkAutoKindFindAll(b *testing.B) {
	for _, dist := range sequence.AllDistributions {
		n := autoBenchFillN(dist)
		elems := autoBenchStream(dist, n, 42)
		probe := autoBenchStream(dist, n, 43)
		for _, kind := range autoBenchKinds {
			b.Run("dist="+string(dist)+"/kind="+string(kind), func(b *testing.B) {
				// Fresh always-on counter state per cell so no gauge or
				// grain window leaks across cells.
				obs.CoreReset()
				tab := MustNew[core.SetOps](kind, autoBenchCells)
				bulk, _ := AsBulk(tab)
				bulk.InsertAll(elems)
				dst := make([]uint64, len(probe))
				// Three warm passes: the auto kind's find share crosses the
				// compact threshold at the third bulk boundary, so any
				// migration (and the cache warming of the migrated layout)
				// happens before the timer starts; the static kinds get the
				// same warming.
				bulk.FindAll(probe, dst)
				bulk.FindAll(probe, dst)
				bulk.FindAll(probe, dst)
				if a, ok := tab.(*AutoTable[core.SetOps]); ok {
					b.Logf("auto settled on %s (load %d/%d): trace %q",
						a.Kind(), a.Count(), a.Size(), a.TuneTrace())
				}
				b.ReportMetric(float64(len(probe)), "elems/op")
				// Collect the fill/migration garbage (earlier cells' tables,
				// the auto kind's abandoned flat layout) so later cells don't
				// pay earlier cells' GC debt inside the timed loop.
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bulk.FindAll(probe, dst)
				}
			})
		}
	}
}
