// Package obsstats exercises the phase-neutral telemetry accessors:
// phasehash.Stats, ResetStats and ShardStats read the observability
// sinks (or per-shard atomic counters), never table cells, so calling
// them while a write phase is in flight must produce NO diagnostic.
// Each negative case is paired with a classified read on the same
// receiver that DOES fire, proving the analyzer saw the in-flight
// phase and stayed quiet about the telemetry call on purpose.
package obsstats

import (
	"sync"

	"phasehash"
)

// Stats and ResetStats are package-level accessors of the telemetry
// sinks; they never had a receiver to classify, and must stay silent
// even with an insert phase visibly in flight on some table.
func statsDuringInsertOK() {
	s := phasehash.NewSet(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Insert(1)
	}()
	_ = phasehash.Stats()  // phase-neutral: no diagnostic
	phasehash.ResetStats() // phase-neutral: no diagnostic
	_ = s.Contains(1)      // want `Contains \(read phase\) on s may overlap insert-phase operations`
	wg.Wait()
}

// ShardStats on a sharded Set or Map32 reads the shard occupancy
// counters, not the tables, and is declared phase-neutral in the fact
// table — safe mid-insert, unlike Count/Elements on the same receiver.
func shardStatsDuringInsertOK() {
	s := phasehash.NewShardedSet(64, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Insert(1)
	}()
	_ = s.ShardStats() // phase-neutral: no diagnostic
	_ = s.Count()      // want `Count result on s captured while insert-phase operations`
	wg.Wait()
}

func shardStatsMapDuringDeleteOK() {
	m := phasehash.NewShardedMap32(64, phasehash.KeepMin, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Delete(1)
	}()
	_ = m.ShardStats() // phase-neutral: no diagnostic
	_, _ = m.Find(1)   // want `Find \(read phase\) on m may overlap delete-phase operations`
	wg.Wait()
}
