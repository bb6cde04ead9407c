package parallel

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 513, 100000} {
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestForBlockedDisjointCover(t *testing.T) {
	n := 50000
	hits := make([]int32, n)
	ForBlocked(n, 777, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Int32
	Do(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all functions")
	}
	Do() // no-op
}

func TestReduce(t *testing.T) {
	n := 100000
	got := Reduce(n, 0, func(a, b int) int { return a + b }, func(i int) int { return i })
	want := n * (n - 1) / 2
	if got != want {
		t.Fatalf("Reduce sum = %d, want %d", got, want)
	}
	if got := Reduce(0, 0, func(a, b int) int { return a + b }, func(int) int { return 1 }); got != 0 {
		t.Fatalf("empty Reduce = %d", got)
	}
	// Max via Reduce.
	xs := []int{3, 9, 2, 9, 1}
	m := Reduce(len(xs), -1, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}, func(i int) int { return xs[i] })
	if m != 9 {
		t.Fatalf("max = %d", m)
	}
}

func TestScanMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4097, 300000} {
		src := make([]int, n)
		for i := range src {
			src[i] = (i*7)%13 - 3
		}
		want := make([]int, n)
		s := 0
		for i, v := range src {
			want[i] = s
			s += v
		}
		dst := make([]int, n)
		total := Scan(dst, src)
		if total != s {
			t.Fatalf("n=%d: total %d, want %d", n, total, s)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, dst[i], want[i])
			}
		}
	}
}

func TestScanInPlace(t *testing.T) {
	n := 100000
	src := make([]int, n)
	for i := range src {
		src[i] = 1
	}
	Scan(src, src)
	for i := range src {
		if src[i] != i {
			t.Fatalf("in-place scan wrong at %d: %d", i, src[i])
		}
	}
}

func TestPack(t *testing.T) {
	n := 100000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	got := Pack(xs, func(i int) bool { return xs[i]%3 == 0 })
	for j, v := range got {
		if v != 3*j {
			t.Fatalf("Pack[%d] = %d, want %d", j, v, 3*j)
		}
	}
	if len(got) != (n+2)/3 {
		t.Fatalf("Pack len = %d", len(got))
	}
	if Count(100, func(i int) bool { return i < 42 }) != 42 {
		t.Fatal("Count wrong")
	}
}

// TestPackerReused pins the reusable pack: one Packer packs shrinking
// and growing ranges at every worker count, in index order, and the
// emit offsets come from the plan both passes share (at one worker a
// whole range is one loop block, not one pack block).
func TestPackerReused(t *testing.T) {
	defer SetNumWorkers(SetNumWorkers(0))
	const max = 50000
	keep := func(i int) bool { return i%7 != 3 }
	var out []int
	pk := NewPacker(func(lo, hi int) int { return countKept(lo, hi, keep) },
		func(lo, hi, off int) {
			for i := lo; i < hi; i++ {
				if keep(i) {
					out[off] = i
					off++
				}
			}
		})
	xs := make([]int, max)
	for i := range xs {
		xs[i] = i
	}
	for _, w := range []int{1, 2, 3, 8} {
		SetNumWorkers(w)
		for _, n := range []int{max, 3000, 0, 513, 1, 20000} {
			out = make([]int, n)
			total := pk.Pack(n)
			want := Pack(xs[:n], keep)
			if !slices.Equal(out[:total], want) {
				t.Fatalf("workers=%d n=%d: Packer kept %d indexes, Pack %d, or their order differs", w, n, total, len(want))
			}
		}
	}
}

// TestEmitBlocks pins the two-pass driver: blocks never straddle a
// segment boundary, Offset reads per-segment totals off the count pass,
// the copy pass preserves index order at every worker count, and a
// short dst panics before any block writes.
func TestEmitBlocks(t *testing.T) {
	defer SetNumWorkers(SetNumWorkers(1))
	for _, p := range []int{1, 2, 3, 4} {
		SetNumWorkers(p)
		for _, c := range []struct{ n, seg int }{{0, 0}, {5, 0}, {100000, 0}, {100000, 1000}, {100003, 4096}, {64 * 16, 64}} {
			xs := make([]int, c.n)
			for i := range xs {
				xs[i] = (i * 7919) % 5
			}
			var want []int
			for _, x := range xs {
				if x != 0 {
					want = append(want, x)
				}
			}
			seg := c.seg
			if seg <= 0 {
				seg = max(c.n, 1)
			}
			bs := CountBlocks(c.n, c.seg, func(lo, hi int) int {
				if lo/seg != (hi-1)/seg {
					t.Errorf("p=%d n=%d seg=%d: block [%d,%d) straddles a segment boundary", p, c.n, c.seg, lo, hi)
				}
				k := 0
				for _, x := range xs[lo:hi] {
					if x != 0 {
						k++
					}
				}
				return k
			})
			if bs.Total() != len(want) {
				t.Fatalf("p=%d n=%d seg=%d: Total = %d, want %d", p, c.n, c.seg, bs.Total(), len(want))
			}
			for s := 0; s < c.n; s += seg {
				k := 0
				for _, x := range xs[:s] {
					if x != 0 {
						k++
					}
				}
				if got := bs.Offset(s); got != k {
					t.Fatalf("p=%d n=%d seg=%d: Offset(%d) = %d, want %d", p, c.n, c.seg, s, got, k)
				}
			}
			if got := bs.Offset(c.n); got != len(want) {
				t.Fatalf("p=%d n=%d seg=%d: Offset(n) = %d, want %d", p, c.n, c.seg, got, len(want))
			}
			dst := make([]int, len(want)+3)
			EmitBlocks(bs, dst, func(lo, hi int, out []int) {
				o := 0
				for _, x := range xs[lo:hi] {
					if x != 0 {
						out[o] = x
						o++
					}
				}
				if o != len(out) {
					t.Errorf("block [%d,%d) emitted %d, region holds %d", lo, hi, o, len(out))
				}
			})
			if !slices.Equal(dst[:len(want)], want) {
				t.Fatalf("p=%d n=%d seg=%d: EmitBlocks packed the wrong sequence", p, c.n, c.seg)
			}
			if len(want) > 0 {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("p=%d n=%d seg=%d: short dst did not panic", p, c.n, c.seg)
						}
					}()
					short := make([]int, len(want)-1, len(want)+8) // the contract is on length, not capacity
					EmitBlocks(bs, short, func(lo, hi int, out []int) { t.Error("short dst reached a block") })
				}()
			}
		}
	}
}

func TestSort(t *testing.T) {
	n := 200000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = (i * 1103515245) % 1000003
	}
	Sort(xs, func(a, b int) bool { return a < b })
	for i := 1; i < n; i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSortIntsMatchesSort(t *testing.T) {
	f := func(raw []uint64) bool {
		a := append([]uint64(nil), raw...)
		b := append([]uint64(nil), raw...)
		SortInts(a)
		Sort(b, func(x, y uint64) bool { return x < y })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Large case to exercise the parallel radix path.
	n := 300000
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = uint64((i*2654435761)%1000000007) << 7
	}
	SortInts(xs)
	for i := 1; i < n; i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("radix sort out of order at %d", i)
		}
	}
}

func TestSetNumWorkers(t *testing.T) {
	old := SetNumWorkers(1)
	defer SetNumWorkers(old)
	if NumWorkers() != 1 {
		t.Fatal("SetNumWorkers(1) ignored")
	}
	// Loops still work single-threaded.
	if total := Count(1000, func(int) bool { return true }); total != 1000 {
		t.Fatalf("Count = %d", total)
	}
	SetNumWorkers(0) // resets to GOMAXPROCS
	if NumWorkers() < 1 {
		t.Fatal("reset failed")
	}
}

// TestNumWorkersFollowsGOMAXPROCS checks that without a SetNumWorkers
// setting the worker count tracks GOMAXPROCS as it changes (go test
// -cpu changes it after start-up), that a setting overrides it, and
// that SetNumWorkers returns the previous setting, 0 while following.
func TestNumWorkersFollowsGOMAXPROCS(t *testing.T) {
	defer SetNumWorkers(SetNumWorkers(0))
	p := runtime.GOMAXPROCS(0) + 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	if got := NumWorkers(); got != p {
		t.Fatalf("GOMAXPROCS %d: NumWorkers = %d", p, got)
	}
	runtime.GOMAXPROCS(1)
	if got := NumWorkers(); got != 1 {
		t.Fatalf("GOMAXPROCS 1: NumWorkers = %d", got)
	}
	if prev := SetNumWorkers(p + 2); prev != 0 {
		t.Fatalf("SetNumWorkers returned %d while following GOMAXPROCS, want 0", prev)
	}
	runtime.GOMAXPROCS(p)
	if got := NumWorkers(); got != p+2 {
		t.Fatalf("setting %d, GOMAXPROCS %d: NumWorkers = %d", p+2, p, got)
	}
	if prev := SetNumWorkers(0); prev != p+2 {
		t.Fatalf("SetNumWorkers returned %d, want the setting %d", prev, p+2)
	}
	if got := NumWorkers(); got != p {
		t.Fatalf("after reset, GOMAXPROCS %d: NumWorkers = %d", p, got)
	}
}

// The pool must survive nested parallelism: a loop body that itself
// dispatches loops. Completion is defined by outstanding blocks, not by
// particular workers, so this must not deadlock even when every pool
// worker is busy with the outer loop.
func TestNestedForBlocked(t *testing.T) {
	old := SetNumWorkers(8)
	defer SetNumWorkers(old)
	outer := 16
	var total atomic.Int64
	ForGrain(outer, 1, func(i int) {
		inner := 10000
		var sum atomic.Int64
		ForGrain(inner, 64, func(j int) { sum.Add(1) })
		total.Add(sum.Load())
	})
	if got := total.Load(); got != int64(outer*10000) {
		t.Fatalf("nested loops lost work: %d", got)
	}
}

// Repeated small dispatches (the iterative-app shape the pool exists
// for) must each cover their range exactly once.
func TestRepeatedDispatchCoverage(t *testing.T) {
	old := SetNumWorkers(4)
	defer SetNumWorkers(old)
	for round := 0; round < 200; round++ {
		n := 64 + round
		hits := make([]int32, n)
		ForGrain(n, 8, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, h)
			}
		}
	}
}

// Determinism: results independent of worker count.
func TestScanDeterministicAcrossWorkers(t *testing.T) {
	n := 123457
	src := make([]int, n)
	for i := range src {
		src[i] = i % 17
	}
	ref := make([]int, n)
	old := SetNumWorkers(1)
	Scan(ref, src)
	for _, w := range []int{2, 3, 8} {
		SetNumWorkers(w)
		dst := make([]int, n)
		Scan(dst, src)
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("workers=%d: scan differs at %d", w, i)
			}
		}
	}
	SetNumWorkers(old)
}
