//go:build obs

package detres

import (
	"testing"

	"phasehash/internal/chaos"
	"phasehash/internal/core"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
	"phasehash/internal/sequence"
)

// runObsCell runs one oracle cell under a clean telemetry state and
// returns the merged op counts. Probe steps, CAS failures and
// displacement tallies measure the *schedule* and legitimately vary
// across workers and chaos profiles; the op counts measure the
// *workload* and must not.
func runObsCell(r Runner, elems []uint64, workers int, prof chaos.Profile, seed uint64) obs.OpCounts {
	obs.Reset()
	runCell(r, elems, workers, prof, seed)
	s := obs.TakeSnapshot()
	return s.Ops()
}

// TestObsOpCountsScheduleIndependent wires the phasestats determinism
// claim into the detres grid: for a fixed workload, obs.Snapshot() op
// counts are identical across worker counts and chaos profiles — the
// schedule moves probe lengths and retries, never how many operations
// the phases performed. The grow runners are included: a resize rehashes
// outside the insert counters, so growth never shows up as insert ops.
func TestObsOpCountsScheduleIndependent(t *testing.T) {
	cfg := testOracleConfig(t)
	runners := []Runner{
		WordRunner{Capacity: 4 * cfg.N},
		WordBulkRunner{Capacity: 4 * cfg.N},
		ShardedRunner{Capacity: 4 * cfg.N, Shards: 8},
		ShardedBulkRunner{Capacity: 4 * cfg.N, Shards: 8},
		GrowRunner{Initial: 64},
		GrowBulkRunner{Initial: 64},
	}
	prevWorkers := parallel.SetNumWorkers(0)
	defer func() {
		parallel.SetNumWorkers(prevWorkers)
		obs.Reset()
	}()
	for _, r := range runners {
		for _, dist := range cfg.Dists {
			for _, seed := range cfg.Seeds {
				elems := OracleWorkload(dist, cfg.N, seed)
				ref := runObsCell(r, elems, cfg.Workers[0], cfg.Profiles[0], seed)
				if ref.InsertOps == 0 || ref.DeleteOps == 0 {
					t.Fatalf("%s/%s/seed=%d: reference cell recorded no ops (%+v)",
						r.Name(), dist, seed, ref)
				}
				for pi, prof := range cfg.Profiles {
					for _, w := range cfg.Workers {
						if pi == 0 && w == cfg.Workers[0] {
							continue
						}
						got := runObsCell(r, elems, w, prof, seed)
						if got != ref {
							t.Fatalf("%s/%s/seed=%d: op counts depend on the schedule: workers=%d profile=%s got %+v, reference (workers=%d profile=%s) %+v",
								r.Name(), dist, seed, w, prof.Name, got,
								cfg.Workers[0], cfg.Profiles[0].Name, ref)
						}
					}
				}
			}
		}
	}
}

// TestObsFindOpCountsScheduleIndependent covers the read phase, which
// the oracle runners don't exercise: a striped parallel Contains sweep
// must report the same find-op and hit counts at every worker count.
func TestObsFindOpCountsScheduleIndependent(t *testing.T) {
	cfg := testOracleConfig(t)
	elems := OracleWorkload(sequence.RandomInt, cfg.N, cfg.Seeds[0])
	tb := core.NewWordTable[core.SetOps](4 * cfg.N)
	for _, e := range elems {
		tb.Insert(e)
	}
	prevWorkers := parallel.SetNumWorkers(0)
	defer func() {
		parallel.SetNumWorkers(prevWorkers)
		obs.Reset()
	}()
	var ref obs.OpCounts
	for wi, w := range cfg.Workers {
		parallel.SetNumWorkers(w)
		obs.Reset()
		parallel.For(len(elems), func(i int) {
			tb.Contains(elems[i])
			tb.Contains(elems[i] | 1<<63) // guaranteed miss half
		})
		s := obs.TakeSnapshot()
		got := s.Ops()
		if wi == 0 {
			ref = got
			if ref.FindOps != 2*uint64(len(elems)) {
				t.Fatalf("reference find ops %d, want %d", ref.FindOps, 2*len(elems))
			}
			continue
		}
		if got != ref {
			t.Fatalf("workers=%d: find op counts %+v != reference %+v", w, got, ref)
		}
	}
}
