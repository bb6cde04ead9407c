package main

import (
	"fmt"
	"math/bits"
	"time"

	"phasehash/internal/core"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
	"phasehash/internal/tune"
)

// layerInputs is what a workload's traced run hands the per-layer
// metrics. The core kernel times come from the spans of the workload's
// direct calls on its core table type, which it brackets in blocks with
// reference spans; the rest is measured here or counted during the
// workload's measured repetitions.
type layerInputs struct {
	core     string        // core table type named in the probe's spans
	batch    []uint64      // one call's worth of the workload's keys
	shards   int           // shard count of the workload's table (1 unsharded)
	cells    int           // table cells after the insert phase
	addedErr float64       // insert results reported minus keys added, per repetition
	counters obs.CoreStats // always-on counter deltas over the measured repetitions
	unitMs   []float64     // the latencies behind latency_ms
}

func layerMetrics(p *pass, in layerInputs) error {
	n := len(in.batch)
	nb := in.shards
	if nb <= 1 {
		nb = tune.Shards(in.cells, parallel.NumWorkers(), 0)
	}
	shift := uint(64 - bits.TrailingZeros(uint(nb)))
	bucket := func(i int) int { return int(core.SetOps{}.Hash(in.batch[i]) >> shift) }
	dst := make([]uint64, n)
	p.referenceSpan()
	for block := 0; block < 4; block++ {
		repeat(50, 5*time.Millisecond, func() time.Duration {
			return p.tr.call("parallel:ForBlocked", 0, 1, func() { parallel.ForBlocked(n, 0, func(lo, hi int) {}) })
		})
		repeat(2, 10*time.Millisecond, func() time.Duration {
			return p.tr.call("parallel:Partition", 0, n, func() { parallel.Partition(dst, in.batch, nb, bucket) })
		})
		p.referenceSpan()
	}

	for _, k := range [][2]string{{"insert", "InsertAll"}, {"find", "ContainsAll"}, {"delete", "DeleteAll"}, {"elements", "Elements"}} {
		ns, calls := p.tr.nominalNsPerItem("core:" + in.core + "." + k[1])
		if calls == 0 {
			return fmt.Errorf("no core:%s.%s spans were recorded", in.core, k[1])
		}
		p.add("core."+k[0]+"_ns", ns, calls)
	}
	dispatch, calls := p.tr.nominalNsPerItem("parallel:ForBlocked")
	p.add("parallel.dispatch_us", dispatch/1e3, calls)
	partition, calls := p.tr.nominalNsPerItem("parallel:Partition")
	p.add("parallel.partition_ns", partition, calls)
	c := in.counters
	p.add("core.insert_probes", ratio(float64(c.InsertProbeSteps), float64(c.InsertOps)), int(c.InsertOps))
	p.add("core.find_probes", ratio(float64(c.FindProbeSteps), float64(c.FindOps)), int(c.FindOps))
	p.add("core.delete_probes", ratio(float64(c.DeleteProbeSteps), float64(c.DeleteOps)), int(c.DeleteOps))
	p.add("core.find_hit_frac", ratio(float64(c.FindHits), float64(c.FindOps)), int(c.FindOps))
	p.add("core.shards", float64(in.shards), 1)
	imbalance := 1000.0 // one shard is perfectly balanced
	if in.shards > 1 {
		imbalance = float64(obs.CoreMaxShardImbalancePm())
	}
	p.add("core.shard_imbalance_pm", imbalance, 1)
	p.add("core.added_error", in.addedErr, 1)
	p.add("core.final_cells", float64(in.cells), 1)

	p.add("parallel.blocks_per_call", ratio(float64(c.ParBlocks), float64(c.ParDispatches)), int(c.ParDispatches))
	p.add("parallel.items_per_call", ratio(float64(c.ParItems), float64(c.ParDispatches)), int(c.ParDispatches))
	p.add("api.tail_ms", quantile(in.unitMs, tailQ(len(in.unitMs))), len(in.unitMs))
	p.add("api.samples", float64(len(in.unitMs)), 1)
	p.note("api.tail_quantile", tailQ(len(in.unitMs)))
	return nil
}

// repeat runs f at least reps times and until the durations it returns
// add up to minTotal, at most 100 times reps.
func repeat(reps int, minTotal time.Duration, f func() time.Duration) {
	var total time.Duration
	for i := 0; i < reps || (total < minTotal && i < 100*reps); i++ {
		total += f()
	}
}
