package parallel

import (
	"testing"

	"phasehash/internal/hashx"
)

// refPartition is an independently written sequential stable reference:
// walk the buckets in order, and within each bucket walk the input in
// index order, appending matches.
func refPartition(src []uint64, nbuckets int, bucket func(i int) int) ([]uint64, []int) {
	dst := make([]uint64, 0, len(src))
	offsets := make([]int, nbuckets+1)
	for q := 0; q < nbuckets; q++ {
		offsets[q] = len(dst)
		for i := range src {
			if bucket(i) == q {
				dst = append(dst, src[i])
			}
		}
	}
	offsets[nbuckets] = len(dst)
	return dst, offsets
}

// partitionSizes are the satellite's edge sizes around the grain policy
// (MinGrain and the 4*MinGrain serial-fallback threshold), plus larger
// irregular sizes that exercise multi-block scatters.
var partitionSizes = []int{0, 1, 2, MinGrain - 1, MinGrain, MinGrain + 1,
	4*MinGrain - 1, 4 * MinGrain, 4*MinGrain + 1, 3*MinGrain + 7, 10*MinGrain + 13}

func partitionInput(n int, seed uint64) []uint64 {
	src := make([]uint64, n)
	for i := range src {
		src[i] = hashx.At(seed, i)
	}
	return src
}

// TestPartitionMatchesReference property-tests Partition against the
// sequential stable reference across worker counts 1..8, edge sizes and
// bucket counts (including nbuckets=1 and more buckets than elements).
func TestPartitionMatchesReference(t *testing.T) {
	defer SetNumWorkers(SetNumWorkers(0))
	for _, nbuckets := range []int{1, 2, 7, 16, 64} {
		for _, n := range partitionSizes {
			src := partitionInput(n, uint64(n)*31+uint64(nbuckets))
			bucket := func(i int) int { return int(src[i] % uint64(nbuckets)) }
			wantDst, wantOff := refPartition(src, nbuckets, bucket)
			for workers := 1; workers <= 8; workers++ {
				SetNumWorkers(workers)
				dst := make([]uint64, n)
				off := Partition(dst, src, nbuckets, bucket)
				if len(off) != nbuckets+1 {
					t.Fatalf("n=%d buckets=%d workers=%d: %d offsets, want %d", n, nbuckets, workers, len(off), nbuckets+1)
				}
				for q := range off {
					if off[q] != wantOff[q] {
						t.Fatalf("n=%d buckets=%d workers=%d: offsets[%d] = %d, want %d", n, nbuckets, workers, q, off[q], wantOff[q])
					}
				}
				for i := range dst {
					if dst[i] != wantDst[i] {
						t.Fatalf("n=%d buckets=%d workers=%d: dst[%d] = %#x, want %#x (stability violated)", n, nbuckets, workers, i, dst[i], wantDst[i])
					}
				}
			}
		}
	}
}

// TestPartitionDeterministic asserts byte-identical output across
// repeated runs at every worker count — the determinism contract the
// sharded table kernels inherit.
func TestPartitionDeterministic(t *testing.T) {
	defer SetNumWorkers(SetNumWorkers(0))
	const n, nbuckets = 5*MinGrain + 3, 16
	src := partitionInput(n, 99)
	bucket := func(i int) int { return int(src[i] >> 60) }
	var ref []uint64
	var refOff []int
	for workers := 1; workers <= 8; workers++ {
		SetNumWorkers(workers)
		for rep := 0; rep < 3; rep++ {
			dst := make([]uint64, n)
			off := Partition(dst, src, nbuckets, bucket)
			if ref == nil {
				ref, refOff = dst, off
				continue
			}
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("workers=%d rep=%d: dst[%d] = %#x, want %#x", workers, rep, i, dst[i], ref[i])
				}
			}
			for q := range off {
				if off[q] != refOff[q] {
					t.Fatalf("workers=%d rep=%d: offsets[%d] = %d, want %d", workers, rep, q, off[q], refOff[q])
				}
			}
		}
	}
}

// TestPartitionIndexStablePermutation checks PartitionIndex returns the
// stable permutation: within each bucket, indices strictly increase, and
// applying the permutation reproduces Partition's output.
func TestPartitionIndexStablePermutation(t *testing.T) {
	defer SetNumWorkers(SetNumWorkers(0))
	const n, nbuckets = 4*MinGrain + 1, 8
	src := partitionInput(n, 7)
	bucket := func(i int) int { return int(src[i] % nbuckets) }
	for _, workers := range []int{1, 2, 3, 8} {
		SetNumWorkers(workers)
		perm, off := PartitionIndex(n, nbuckets, bucket)
		if len(perm) != n || off[nbuckets] != n {
			t.Fatalf("workers=%d: perm len %d, total %d, want %d", workers, len(perm), off[nbuckets], n)
		}
		seen := make([]bool, n)
		for q := 0; q < nbuckets; q++ {
			prev := -1
			for _, i := range perm[off[q]:off[q+1]] {
				if bucket(i) != q {
					t.Fatalf("workers=%d: index %d in bucket %d's run, but bucket(%d)=%d", workers, i, q, i, bucket(i))
				}
				if i <= prev {
					t.Fatalf("workers=%d: bucket %d not in increasing index order (%d after %d)", workers, q, i, prev)
				}
				prev = i
				seen[i] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: index %d missing from permutation", workers, i)
			}
		}
	}
}

func TestPartitionZeroAndPanics(t *testing.T) {
	off := Partition[uint64](nil, nil, 4, func(i int) int { return 0 })
	for q, o := range off {
		if o != 0 {
			t.Fatalf("empty partition: offsets[%d] = %d", q, o)
		}
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("short dst", func() {
		Partition(make([]uint64, 1), make([]uint64, 2), 2, func(i int) int { return 0 })
	})
	mustPanic("nbuckets<1", func() {
		Partition[uint64](nil, nil, 0, func(i int) int { return 0 })
	})
}
