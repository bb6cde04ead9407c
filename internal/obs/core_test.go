package obs

import (
	"sync"
	"testing"
)

// TestCoreSnapshotMerge asserts the core stripes merge to exact totals
// regardless of which stripe recorded what: concurrent hooks over
// scattered stripes must sum to the serial expectation.
func TestCoreSnapshotMerge(t *testing.T) {
	if !CoreEnabled {
		t.Skip("built with -tags nostats")
	}
	CoreReset()
	const goroutines = 8
	const per = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				stripe := g*per + i
				CoreInsert(stripe, 1, 2)
				CoreFind(stripe, 1, 3, uint64(i%2))
				CoreDelete(stripe, 1, 1)
				CoreHelperRun(g, 2, i%2 == 0)
			}
		}(g)
	}
	wg.Wait()
	s := CoreSnapshot()
	total := uint64(goroutines * per)
	if s.InsertOps != total || s.InsertProbeSteps != 2*total {
		t.Fatalf("insert ops=%d steps=%d, want %d/%d", s.InsertOps, s.InsertProbeSteps, total, 2*total)
	}
	if s.FindOps != total || s.FindProbeSteps != 3*total || s.FindHits != total/2 {
		t.Fatalf("find ops=%d steps=%d hits=%d, want %d/%d/%d",
			s.FindOps, s.FindProbeSteps, s.FindHits, total, 3*total, total/2)
	}
	if s.DeleteOps != total || s.DeleteProbeSteps != total {
		t.Fatalf("delete ops=%d steps=%d, want %d/%d", s.DeleteOps, s.DeleteProbeSteps, total, total)
	}
	if s.ParHelperBlocks != 2*total || s.ParSpinHits != total/2 || s.ParParks != total/2 {
		t.Fatalf("helper blocks=%d spin hits=%d parks=%d, want %d/%d/%d",
			s.ParHelperBlocks, s.ParSpinHits, s.ParParks, 2*total, total/2, total/2)
	}
	if got := s.MeanProbe("find"); got != 3 {
		t.Fatalf("MeanProbe(find) = %v, want 3", got)
	}
	if got := s.Ops(); got != (OpCounts{InsertOps: total, FindOps: total, FindHits: total / 2, DeleteOps: total}) {
		t.Fatalf("Ops() = %+v", got)
	}
	CoreReset()
	if s := CoreSnapshot(); s != (CoreStats{}) {
		t.Fatalf("CoreReset left %+v", s)
	}
}

// TestCoreShardBulkGauge asserts the imbalance gauge is the max over
// calls of max-run * shards * 1000 / total, independent of call order.
func TestCoreShardBulkGauge(t *testing.T) {
	if !CoreEnabled {
		t.Skip("built with -tags nostats")
	}
	CoreReset()
	// 4 shards, runs 10/10/10/10 -> balanced, gauge 1000.
	CoreShardBulk([]int{0, 10, 20, 30, 40})
	// 4 shards, runs 25/5/5/5 -> 25*4*1000/40 = 2500.
	CoreShardBulk([]int{0, 25, 30, 35, 40})
	// Balanced again: the gauge is a running max, must stay 2500.
	CoreShardBulk([]int{0, 10, 20, 30, 40})
	s := CoreSnapshot()
	if s.ShardBulkCalls != 3 || s.ShardBulkRuns != 12 || s.ShardBulkElems != 120 {
		t.Fatalf("calls=%d runs=%d elems=%d, want 3/12/120", s.ShardBulkCalls, s.ShardBulkRuns, s.ShardBulkElems)
	}
	if s.MaxShardImbalancePm != 2500 {
		t.Fatalf("MaxShardImbalancePm = %d, want 2500", s.MaxShardImbalancePm)
	}
	if CoreMaxShardImbalancePm() != 2500 {
		t.Fatalf("CoreMaxShardImbalancePm = %d, want 2500", CoreMaxShardImbalancePm())
	}
	// Degenerate offsets must not divide by zero or move the gauge.
	CoreShardBulk([]int{0})
	CoreShardBulk([]int{0, 0, 0})
	if got := CoreSnapshot().MaxShardImbalancePm; got != 2500 {
		t.Fatalf("gauge moved to %d on degenerate offsets", got)
	}
	CoreReset()
}

// TestCoreStatsSub asserts windowed deltas subtract the additive fields
// and keep the gauge.
func TestCoreStatsSub(t *testing.T) {
	prev := CoreStats{InsertOps: 10, FindOps: 4, ParItems: 100, MaxShardImbalancePm: 1200}
	cur := CoreStats{InsertOps: 25, FindOps: 9, ParItems: 350, MaxShardImbalancePm: 1800}
	d := cur.Sub(prev)
	if d.InsertOps != 15 || d.FindOps != 5 || d.ParItems != 250 {
		t.Fatalf("Sub additive fields wrong: %+v", d)
	}
	if d.MaxShardImbalancePm != 1800 {
		t.Fatalf("Sub gauge = %d, want 1800 (keeps the later max)", d.MaxShardImbalancePm)
	}
	if got := d.MeanProbe("insert"); got != 0 {
		t.Fatalf("MeanProbe with zero steps = %v, want 0", got)
	}
}
