//go:build go1.24

package parallel

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestFinishedJobNotRetained checks that the pool keeps nothing of a
// returned ForBlocked: the latest-job slot must be cleared when the
// last block completes, or the finished body — and the slice it
// captured — stays reachable until the next dispatch. A wake token
// still in flight holds the job until its worker runs, so the test
// gives the workers a few chances to drain before it fails.
func TestFinishedJobNotRetained(t *testing.T) {
	old := SetNumWorkers(2)
	defer SetNumWorkers(old)
	wp := dispatchCapturing()
	for try := 0; try < 50; try++ {
		runtime.GC()
		if wp.Value() == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("a finished ForBlocked body's captured slice is still reachable")
}

// dispatchCapturing runs one pooled loop whose body captures a fresh
// array and returns a weak pointer to it.
//
//go:noinline
func dispatchCapturing() weak.Pointer[[1 << 12]int64] {
	buf := new([1 << 12]int64)
	ForBlocked(len(buf), MinGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i] = int64(i)
		}
	})
	return weak.Make(buf)
}
