package core

import (
	"testing"

	"phasehash/internal/hashx"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// coreDelta runs f and returns what the counter core recorded while it
// ran.
func coreDelta(f func()) obs.CoreStats {
	before := obs.CoreSnapshot()
	f()
	return obs.CoreSnapshot().Sub(before)
}

// wordLayout is the per-element and bulk API every single-word layout
// shares.
type wordLayout interface {
	Insert(v uint64) bool
	Find(v uint64) (uint64, bool)
	Delete(v uint64) bool
	InsertAll(elems []uint64) int
	FindAll(keys, dst []uint64) int
	DeleteAll(keys []uint64) int
}

// telemetryScript is one insert/find/delete script: inserts with
// duplicates, finds of every inserted key plus as many absent ones,
// and deletes of every third inserted key.
func telemetryScript(n int) (ins, finds, dels []uint64) {
	for i := 0; i < n; i++ {
		ins = append(ins, hashx.At(3, i)%uint64(n)+1) // duplicate-heavy
	}
	finds = append(finds, ins...)
	for i := 0; i < n; i++ {
		finds = append(finds, hashx.At(4, i)|1<<63) // never inserted
	}
	for i := 0; i < n; i += 3 {
		dels = append(dels, ins[i])
	}
	return ins, finds, dels
}

// TestCoreCountsEveryLayout checks that every layout feeds the counter
// core, and that its per-element and bulk calls report the same op and
// hit counts for the same script: one op per element, one hit per
// present key.
func TestCoreCountsEveryLayout(t *testing.T) {
	if !obs.CoreEnabled {
		t.Skip("counter core compiled out (-tags nostats)")
	}
	const n = 3000
	ins, finds, dels := telemetryScript(n)
	hits := uint64(0)
	ref := NewWordTable[SetOps](4 * n)
	ref.InsertAll(ins)
	for _, k := range finds {
		if ref.Contains(k) {
			hits++
		}
	}
	want := obs.OpCounts{InsertOps: uint64(len(ins)), FindOps: uint64(len(finds)), FindHits: hits, DeleteOps: uint64(len(dels))}
	layouts := map[string]func() wordLayout{
		"word":    func() wordLayout { return NewWordTable[SetOps](4 * n) },
		"compact": func() wordLayout { return NewCompactTable[SetOps](4 * n) },
		"sharded": func() wordLayout { return NewShardedTable[SetOps](4*n, 8) },
		"grow":    func() wordLayout { return NewGrowTable[SetOps](minGrowSize) },
	}
	for name, mk := range layouts {
		perElem := coreDelta(func() {
			tb := mk()
			for _, k := range ins {
				tb.Insert(k)
			}
			for _, k := range finds {
				tb.Find(k)
			}
			for _, k := range dels {
				tb.Delete(k)
			}
		}).Ops()
		bulk := coreDelta(func() {
			tb := mk()
			tb.InsertAll(ins)
			tb.FindAll(finds, nil)
			tb.DeleteAll(dels)
		}).Ops()
		if perElem != want || bulk != want {
			t.Errorf("%s: per-element %+v, bulk %+v, want %+v", name, perElem, bulk, want)
		}
	}

	recs := func(keys []uint64) []*rec {
		out := make([]*rec, len(keys))
		for i, k := range keys {
			out[i] = &rec{key: k}
		}
		return out
	}
	pins, pfinds, pdels := recs(ins), recs(finds), recs(dels)
	perElem := coreDelta(func() {
		tb := NewPtrTable[rec, recOps](4 * n)
		for _, r := range pins {
			tb.Insert(r)
		}
		for _, r := range pfinds {
			tb.Find(r)
		}
		for _, r := range pdels {
			tb.Delete(r)
		}
	}).Ops()
	bulk := coreDelta(func() {
		tb := NewPtrTable[rec, recOps](4 * n)
		tb.InsertAll(pins)
		tb.FindAll(pfinds, nil)
		tb.DeleteAll(pdels)
	}).Ops()
	if perElem != want || bulk != want {
		t.Errorf("ptr: per-element %+v, bulk %+v, want %+v", perElem, bulk, want)
	}
}

// TestShardedBulkProbeStepsScheduleIndependent checks the claim the
// counter core's determinism contract makes for sharded bulk calls run
// alone: each shard's run is probed by one worker in the partition's
// order, and the partition is a pure function of the keys, so the
// probe-step totals are the same at every worker count. Each bulk call
// also reports its partition to the core once.
func TestShardedBulkProbeStepsScheduleIndependent(t *testing.T) {
	if !obs.CoreEnabled {
		t.Skip("counter core compiled out (-tags nostats)")
	}
	const n = 1 << 14
	ins, finds, dels := telemetryScript(n)
	var ref obs.CoreStats
	for wi, w := range []int{1, 2, 4} {
		func() {
			defer parallel.SetNumWorkers(parallel.SetNumWorkers(w))
			d := coreDelta(func() {
				tb := NewShardedTable[SetOps](2*n, 8)
				tb.InsertAll(ins)
				tb.FindAll(finds, nil)
				tb.FindAll(finds, make([]uint64, len(finds)))
				tb.DeleteAll(dels)
			})
			if d.InsertProbeSteps == 0 || d.FindProbeSteps == 0 || d.DeleteProbeSteps == 0 {
				t.Fatalf("workers=%d: no probe steps recorded: %+v", w, d)
			}
			if elems := uint64(len(ins) + 2*len(finds) + len(dels)); d.ShardBulkCalls != 4 || d.ShardBulkElems != elems {
				t.Fatalf("workers=%d: shard bulk calls %d elems %d, want 4 and %d", w, d.ShardBulkCalls, d.ShardBulkElems, elems)
			}
			if wi == 0 {
				ref = d
				return
			}
			if d.InsertProbeSteps != ref.InsertProbeSteps || d.FindProbeSteps != ref.FindProbeSteps ||
				d.DeleteProbeSteps != ref.DeleteProbeSteps || d.Ops() != ref.Ops() {
				t.Fatalf("workers=%d: steps insert/find/delete %d/%d/%d, ops %+v; at 1 worker %d/%d/%d, %+v",
					w, d.InsertProbeSteps, d.FindProbeSteps, d.DeleteProbeSteps, d.Ops(),
					ref.InsertProbeSteps, ref.FindProbeSteps, ref.DeleteProbeSteps, ref.Ops())
			}
		}()
	}
}
