package parallel

import (
	"sync"
	"sync/atomic"
	"testing"

	"phasehash/internal/obs"
)

// TestBackToBackDispatchExactlyOnce races two goroutines that each make
// 10 000 small dispatches back to back — the shape that keeps pool
// workers spinning on the latest-job slot, which the two dispatchers
// keep overwriting — with a nested ForBlocked in every fifth body.
// Every block of every call, nested ones included, must run exactly
// once.
func TestBackToBackDispatchExactlyOnce(t *testing.T) {
	const calls = 10000
	for _, w := range []int{1, 2, 8} {
		old := SetNumWorkers(w)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var hits [8]atomic.Int32
				var inner [3]atomic.Int32
				for call := 0; call < calls; call++ {
					n := 2 + call%7
					nested := call%5 == 0
					ForBlocked(n, 1, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							hits[i].Add(1)
						}
						if nested && lo == 0 {
							ForBlocked(len(inner), 1, func(lo, hi int) {
								for i := lo; i < hi; i++ {
									inner[i].Add(1)
								}
							})
						}
					})
					for i := range hits {
						want := int32(0)
						if i < n {
							want = 1
						}
						if got := hits[i].Swap(0); got != want {
							t.Errorf("workers=%d call %d: block %d ran %d times, want %d", w, call, i, got, want)
							return
						}
					}
					for i := range inner {
						want := int32(0)
						if nested {
							want = 1
						}
						if got := inner[i].Swap(0); got != want {
							t.Errorf("workers=%d call %d: nested block %d ran %d times, want %d", w, call, i, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		SetNumWorkers(old)
	}
}

// backToBackIters is the length of BenchmarkBackToBackDispatch's block
// body, a dependent multiply-add chain: ~18 µs on a 2-vCPU Xeon, about
// the time a 512-key find block takes there.
const backToBackIters = 13000

var backToBackSink atomic.Uint64

// BenchmarkBackToBackDispatch makes 2-block calls with ~18 µs bodies
// back to back at two workers: the shape of a 1024-key bulk call in a
// loop. ns/op is the cost of one call; with both blocks in parallel it
// approaches one body's time, with the dispatcher running both alone
// it approaches two. helper-share is the fraction of blocks the pool
// worker ran and parks/call how often it had to be woken from a park
// (counter core; neither is reported under -tags nostats).
func BenchmarkBackToBackDispatch(b *testing.B) {
	old := SetNumWorkers(2)
	defer SetNumWorkers(old)
	body := func(lo, hi int) {
		x := uint64(lo + 1)
		for i := 0; i < backToBackIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		backToBackSink.Add(x)
	}
	ForBlocked(2, 1, body) // start the helper outside the timed loop
	before := obs.CoreSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForBlocked(2, 1, body)
	}
	b.StopTimer()
	if d := obs.CoreSnapshot().Sub(before); d.ParBlocks > 0 {
		b.ReportMetric(float64(d.ParHelperBlocks)/float64(d.ParBlocks), "helper-share")
		b.ReportMetric(float64(d.ParParks)/float64(b.N), "parks/call")
	}
}
