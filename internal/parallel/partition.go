package parallel

// Partition reorders src into dst grouped by bucket: all elements whose
// bucket(i) is 0 first, then bucket 1, and so on, each bucket's run in
// original index order (a stable counting sort / radix-partition pass).
// It returns offsets of length nbuckets+1: bucket b's run is
// dst[offsets[b]:offsets[b+1]], and offsets[nbuckets] == len(src).
//
// bucket(i) classifies src[i] and must be a pure function of i returning
// a value in [0, nbuckets); out-of-range values panic. dst must satisfy
// len(dst) == len(src) and must not alias src.
//
// The computation is the classic two-pass blocked scheme (per-block
// histograms, an exclusive Scan over the bucket-major flattened counts,
// then a per-block scatter into exact positions), so the output — like
// everything in this package — is a pure function of the inputs,
// independent of worker count and scheduling. The sharded hash-table
// kernels rely on exactly that: the partitioned order is the order in
// which each shard's worker probes its run, and any schedule dependence
// here would leak into the probe telemetry.
//
// bucket is called exactly once per element when nbuckets <= 256: the
// counting pass caches each element's bucket id in a byte, and the
// scatter pass streams the bytes back instead of re-evaluating what is
// typically a hash function. Larger nbuckets fall back to calling
// bucket in both passes.
func Partition[T any](dst, src []T, nbuckets int, bucket func(i int) int) []int {
	n := len(src)
	if len(dst) != n {
		panic("parallel: Partition: len(dst) != len(src)")
	}
	if nbuckets < 1 {
		panic("parallel: Partition: nbuckets < 1")
	}
	offsets := make([]int, nbuckets+1)
	if n == 0 {
		return offsets
	}
	var ids []uint8
	if nbuckets <= 256 {
		ids = make([]uint8, n)
	}
	if n < 4*MinGrain || NumWorkers() == 1 {
		partitionSerial(dst, src, offsets, ids, bucket)
		return offsets
	}
	blocks := makeBlocks(n)
	nb := len(blocks)
	// counts is bucket-major: counts[q*nb+b] is block b's count for
	// bucket q. After the exclusive scan, the same slot is the exact
	// start position of block b's run within bucket q — bucket-major
	// order makes the single Scan produce both the bucket offsets and
	// the per-block cursors, and makes the result stable (bucket, then
	// block, then index order).
	counts := make([]int, nbuckets*nb)
	ForGrain(nb, 1, func(b int) {
		local := make([]int, nbuckets)
		if ids != nil {
			for i := blocks[b].lo; i < blocks[b].hi; i++ {
				q := bucket(i)
				local[q]++
				ids[i] = uint8(q)
			}
		} else {
			for i := blocks[b].lo; i < blocks[b].hi; i++ {
				local[bucket(i)]++
			}
		}
		for q := 0; q < nbuckets; q++ {
			counts[q*nb+b] = local[q]
		}
	})
	total := Scan(counts, counts)
	for q := 0; q < nbuckets; q++ {
		offsets[q] = counts[q*nb]
	}
	offsets[nbuckets] = total
	ForGrain(nb, 1, func(b int) {
		cursors := make([]int, nbuckets)
		for q := 0; q < nbuckets; q++ {
			cursors[q] = counts[q*nb+b]
		}
		if ids != nil {
			for i := blocks[b].lo; i < blocks[b].hi; i++ {
				q := ids[i]
				dst[cursors[q]] = src[i]
				cursors[q]++
			}
		} else {
			for i := blocks[b].lo; i < blocks[b].hi; i++ {
				q := bucket(i)
				dst[cursors[q]] = src[i]
				cursors[q]++
			}
		}
	})
	return offsets
}

// partitionSerial is the one-pass-histogram sequential fallback; it is
// also the reference the parallel path's property tests compare against.
// ids, when non-nil, caches bucket(i) between the two passes.
func partitionSerial[T any](dst, src []T, offsets []int, ids []uint8, bucket func(i int) int) {
	nbuckets := len(offsets) - 1
	counts := make([]int, nbuckets)
	if ids != nil {
		for i := range src {
			q := bucket(i)
			counts[q]++
			ids[i] = uint8(q)
		}
	} else {
		for i := range src {
			counts[bucket(i)]++
		}
	}
	o := 0
	for q := 0; q < nbuckets; q++ {
		offsets[q] = o
		o += counts[q]
		counts[q] = offsets[q]
	}
	offsets[nbuckets] = o
	if ids != nil {
		for i := range src {
			q := ids[i]
			dst[counts[q]] = src[i]
			counts[q]++
		}
	} else {
		for i := range src {
			q := bucket(i)
			dst[counts[q]] = src[i]
			counts[q]++
		}
	}
}

// PartitionIndex is Partition over the index sequence [0, n): it returns
// the stable permutation perm (original indices grouped by bucket, each
// bucket in increasing index order) and the bucket offsets. Use it when
// downstream work needs the original positions — e.g. a sharded FindAll
// that must write results back to the caller's per-key result slots.
func PartitionIndex(n, nbuckets int, bucket func(i int) int) (perm, offsets []int) {
	src := make([]int, n)
	For(n, func(i int) { src[i] = i })
	perm = make([]int, n)
	offsets = Partition(perm, src, nbuckets, bucket)
	return perm, offsets
}
