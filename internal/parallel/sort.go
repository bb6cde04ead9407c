package parallel

import "sort"

// sortSerialCutoff is the subproblem size below which parallel sorts fall
// back to the standard library's sequential sort.
const sortSerialCutoff = 1 << 13

// Sort sorts xs with a parallel merge sort using the less function. The
// sort is not stable. It is used by the suffix-array builder and by tests
// that compare hash-table contents against sorted references.
func Sort[T any](xs []T, less func(a, b T) bool) {
	if len(xs) < sortSerialCutoff || NumWorkers() == 1 {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	buf := make([]T, len(xs))
	mergeSort(xs, buf, less, depthFor(NumWorkers()))
}

// depthFor picks a recursion depth that yields ~4x as many leaf tasks as
// workers.
func depthFor(p int) int {
	d := 0
	for (1 << d) < 4*p {
		d++
	}
	return d
}

func mergeSort[T any](xs, buf []T, less func(a, b T) bool, depth int) {
	n := len(xs)
	if depth == 0 || n < sortSerialCutoff {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	mid := n / 2
	Do(
		func() { mergeSort(xs[:mid], buf[:mid], less, depth-1) },
		func() { mergeSort(xs[mid:], buf[mid:], less, depth-1) },
	)
	merge(buf, xs[:mid], xs[mid:], less)
	copy(xs, buf)
}

func merge[T any](dst, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// SortInts sorts a []uint64 in increasing order with a parallel LSD radix
// sort (8 passes of 8 bits). It is the workhorse for suffix-array rank
// sorting and for building sorted references in tests.
func SortInts(xs []uint64) {
	n := len(xs)
	if n < sortSerialCutoff || NumWorkers() == 1 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return
	}
	buf := make([]uint64, n)
	src, dst := xs, buf
	for shift := 0; shift < 64; shift += 8 {
		if radixPass(dst, src, uint(shift)) {
			src, dst = dst, src
		}
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// radixPass performs one 8-bit counting-sort pass from src to dst on the
// byte at the given shift. It returns false (and copies nothing) when all
// keys share that byte, letting the caller skip the pass.
func radixPass(dst, src []uint64, shift uint) bool {
	n := len(src)
	blocks := makeBlocks(n)
	nb := len(blocks)
	const buckets = 256
	counts := make([][buckets]int, nb)
	ForGrain(nb, 1, func(b int) {
		c := &counts[b]
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			c[(src[i]>>shift)&0xff]++
		}
	})
	// Skip the pass when every key shares this byte (common for high
	// bytes of small keys).
	for v := 0; v < buckets; v++ {
		t := 0
		for b := 0; b < nb; b++ {
			t += counts[b][v]
		}
		if t == n {
			return false
		}
		if t > 0 {
			break
		}
	}
	// Column-major exclusive scan over (bucket, block) pairs so that ties
	// keep block (and therefore index) order: LSD radix must be stable.
	total := 0
	for v := 0; v < buckets; v++ {
		for b := 0; b < nb; b++ {
			c := counts[b][v]
			counts[b][v] = total
			total += c
		}
	}
	ForGrain(nb, 1, func(b int) {
		offs := counts[b]
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			v := (src[i] >> shift) & 0xff
			dst[offs[v]] = src[i]
			offs[v]++
		}
	})
	return true
}
