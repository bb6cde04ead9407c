package atomicx

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteMinSequential(t *testing.T) {
	x := uint64(100)
	if !WriteMin(&x, 50) || x != 50 {
		t.Fatal("WriteMin failed to lower")
	}
	if WriteMin(&x, 75) || x != 50 {
		t.Fatal("WriteMin raised the value")
	}
	if WriteMin(&x, 50) {
		t.Fatal("WriteMin of equal value reported a write")
	}
}

func TestWriteMaxSequential(t *testing.T) {
	x := uint64(100)
	if !WriteMax(&x, 150) || x != 150 {
		t.Fatal("WriteMax failed to raise")
	}
	if WriteMax(&x, 120) || x != 150 {
		t.Fatal("WriteMax lowered the value")
	}
}

func TestWriteMinConcurrentCommutes(t *testing.T) {
	// The defining property: the result is the minimum of all written
	// values, regardless of scheduling — and exactly one writer wins.
	for trial := 0; trial < 20; trial++ {
		x := ^uint64(0)
		var wg sync.WaitGroup
		wins := make(chan uint64, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for v := uint64(g); v < 64; v += 8 {
					if WriteMin(&x, v*7+3) {
						wins <- v*7 + 3
					}
				}
			}(g)
		}
		wg.Wait()
		close(wins)
		if x != 3 {
			t.Fatalf("final value %d, want 3", x)
		}
		// The winning sequence must be strictly decreasing per writer...
		// globally the last winner must be the minimum.
		sawMin := false
		for v := range wins {
			if v == 3 {
				sawMin = true
			}
		}
		if !sawMin {
			t.Fatal("minimum value never reported a win")
		}
	}
}

func TestQuickWriteMinIsMin(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		x := ^uint64(0)
		min := x
		for _, v := range vals {
			WriteMin(&x, v)
			if v < min {
				min = v
			}
		}
		return x == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCASLoadStoreAdd(t *testing.T) {
	x := uint64(1)
	if !CAS(&x, 1, 2) || Load(&x) != 2 {
		t.Fatal("CAS success path broken")
	}
	if CAS(&x, 1, 3) || Load(&x) != 2 {
		t.Fatal("CAS failure path broken")
	}
	Store(&x, 9)
	if Add(&x, 3) != 12 {
		t.Fatal("Add broken")
	}
}
