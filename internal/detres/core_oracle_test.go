package detres

import (
	"testing"

	"phasehash/internal/chaos"
	"phasehash/internal/core"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
	"phasehash/internal/sequence"
)

// coreOps runs f and returns the op counts the counter core recorded
// while it ran. Probe steps measure the *schedule* and legitimately
// vary across workers and chaos profiles; the op counts measure the
// *workload* and must not.
func coreOps(f func()) obs.OpCounts {
	before := obs.CoreSnapshot()
	f()
	return obs.CoreSnapshot().Sub(before).Ops()
}

// skipWithoutCore skips under -tags nostats, which compiles the core out.
func skipWithoutCore(t *testing.T) {
	if !obs.CoreEnabled {
		t.Skip("counter core compiled out (-tags nostats)")
	}
}

// TestCoreOpCountsScheduleIndependent wires the counter core's
// determinism claim into the detres grid: for a fixed workload, the
// core's op counts are identical across worker counts and chaos
// profiles — the schedule moves probe lengths and retries, never how
// many operations the phases performed. Every layout is in it: the
// grow runners rehash outside the insert counters, so growth never
// shows up as insert ops, and the compact runners feed the core from
// both the per-element API and the bulk kernels.
func TestCoreOpCountsScheduleIndependent(t *testing.T) {
	skipWithoutCore(t)
	cfg := testOracleConfig(t)
	runners := []Runner{
		WordRunner{Capacity: 4 * cfg.N},
		WordBulkRunner{Capacity: 4 * cfg.N},
		ShardedRunner{Capacity: 4 * cfg.N, Shards: 8},
		ShardedBulkRunner{Capacity: 4 * cfg.N, Shards: 8},
		GrowRunner{Initial: 64},
		GrowBulkRunner{Initial: 64},
		CompactRunner{Capacity: 4 * cfg.N},
		CompactBulkRunner{Capacity: 4 * cfg.N},
	}
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	for _, r := range runners {
		for _, dist := range cfg.Dists {
			for _, seed := range cfg.Seeds {
				elems := OracleWorkload(dist, cfg.N, seed)
				cell := func(w int, prof chaos.Profile) obs.OpCounts {
					return coreOps(func() { runCell(r, elems, w, prof, seed) })
				}
				ref := cell(cfg.Workers[0], cfg.Profiles[0])
				if ref.InsertOps != uint64(len(elems)) || ref.DeleteOps != uint64(len(everyThird(elems))) {
					t.Fatalf("%s/%s/seed=%d: reference cell recorded %+v, want %d inserts and %d deletes",
						r.Name(), dist, seed, ref, len(elems), len(everyThird(elems)))
				}
				for pi, prof := range cfg.Profiles {
					for _, w := range cfg.Workers {
						if pi == 0 && w == cfg.Workers[0] {
							continue
						}
						if got := cell(w, prof); got != ref {
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

// TestCoreFindOpCountsScheduleIndependent covers the read phase, which
// the oracle runners don't exercise: a striped parallel Contains sweep
// must report the same find-op and hit counts at every worker count,
// on the word and the compact layout alike.
func TestCoreFindOpCountsScheduleIndependent(t *testing.T) {
	skipWithoutCore(t)
	cfg := testOracleConfig(t)
	elems := OracleWorkload(sequence.RandomInt, cfg.N, cfg.Seeds[0])
	word := core.NewWordTable[core.SetOps](4 * cfg.N)
	compact := core.NewCompactTable[core.SetOps](4 * cfg.N)
	word.InsertAll(elems)
	compact.InsertAll(elems)
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	for _, tb := range []interface{ Contains(uint64) bool }{word, compact} {
		var ref obs.OpCounts
		for wi, w := range cfg.Workers {
			parallel.SetNumWorkers(w)
			got := coreOps(func() {
				parallel.For(len(elems), func(i int) {
					tb.Contains(elems[i])
					tb.Contains(elems[i] | 1<<63) // guaranteed miss half
				})
			})
			if wi == 0 {
				ref = got
				if ref.FindOps != 2*uint64(len(elems)) || ref.FindHits != uint64(len(elems)) {
					t.Fatalf("%T: reference find ops %d hits %d, want %d and %d",
						tb, ref.FindOps, ref.FindHits, 2*len(elems), len(elems))
				}
				continue
			}
			if got != ref {
				t.Fatalf("%T workers=%d: find op counts %+v != reference %+v", tb, w, got, ref)
			}
		}
	}
}

// rec is a pointer-table record keyed by k.
type rec struct{ k uint64 }

type recOps struct{}

func (recOps) Hash(e *rec) uint64     { return core.SetOps{}.Hash(e.k) }
func (recOps) Cmp(a, b *rec) int      { return core.SetOps{}.Cmp(a.k, b.k) }
func (recOps) Merge(cur, _ *rec) *rec { return cur }

// TestCorePtrOpCountsScheduleIndependent runs one insert/find/delete
// script on a PtrTable, per element and through the bulk kernels, at
// every worker count: the core must see the script's op and hit counts,
// the same from both paths and from every schedule.
func TestCorePtrOpCountsScheduleIndependent(t *testing.T) {
	skipWithoutCore(t)
	cfg := testOracleConfig(t)
	elems := OracleWorkload(sequence.RandomInt, cfg.N, cfg.Seeds[0])
	recs := make([]*rec, len(elems))
	for i, e := range elems {
		recs[i] = &rec{k: e}
	}
	dels := make([]*rec, 0, len(recs)/3+1)
	for i := 0; i < len(recs); i += 3 {
		dels = append(dels, recs[i])
	}
	want := obs.OpCounts{
		InsertOps: uint64(len(recs)),
		FindOps:   uint64(len(recs)),
		FindHits:  uint64(len(recs)),
		DeleteOps: uint64(len(dels)),
	}
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	for _, w := range cfg.Workers {
		parallel.SetNumWorkers(w)
		perElem := coreOps(func() {
			tb := core.NewPtrTable[rec, recOps](4 * cfg.N)
			parallel.For(len(recs), func(i int) { tb.Insert(recs[i]) })
			parallel.For(len(recs), func(i int) { tb.Find(recs[i]) })
			parallel.For(len(dels), func(i int) { tb.Delete(dels[i]) })
		})
		bulk := coreOps(func() {
			tb := core.NewPtrTable[rec, recOps](4 * cfg.N)
			tb.InsertAll(recs)
			tb.FindAll(recs, nil)
			tb.DeleteAll(dels)
		})
		if perElem != want || bulk != want {
			t.Fatalf("workers=%d: per-element %+v, bulk %+v, want %+v", w, perElem, bulk, want)
		}
	}
}
