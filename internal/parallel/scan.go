package parallel

import (
	"fmt"
	"sort"
)

// Scan computes an exclusive prefix sum of src into dst (dst[i] =
// src[0] + ... + src[i-1]) and returns the total. dst and src may be the
// same slice. The computation uses the classic two-pass blocked scheme:
// per-block sums, a sequential scan over the (few) block sums, then a
// per-block local scan — the same algorithm PBBS uses for its `sequence`
// primitives.
func Scan(dst, src []int) int {
	n := len(src)
	if n == 0 {
		return 0
	}
	if n < 4*minGrain || NumWorkers() == 1 {
		return scanSerial(dst, src)
	}
	blocks := makeBlocks(n)
	sums := make([]int, len(blocks))
	ForGrain(len(blocks), 1, func(b int) {
		s := 0
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			s += src[i]
		}
		sums[b] = s
	})
	total := 0
	for b := range sums {
		sums[b], total = total, total+sums[b]
	}
	ForGrain(len(blocks), 1, func(b int) {
		s := sums[b]
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			s, dst[i] = s+src[i], s
		}
	})
	return total
}

func scanSerial(dst, src []int) int {
	s := 0
	for i, v := range src {
		dst[i] = s
		s += v
	}
	return s
}

// ScanInclusive computes an inclusive prefix sum (dst[i] = src[0] + ... +
// src[i]) and returns the total.
func ScanInclusive(dst, src []int) int {
	total := Scan(dst, src)
	n := len(src)
	For(n, func(i int) {
		if i+1 < n {
			dst[i] = dst[i+1]
		} else {
			dst[i] = total
		}
	})
	return total
}

// Blocks is the result of the count pass of the blocked two-pass pack:
// the block plan and every block's exclusive output offset. It is the
// driver behind the tables' Elements and Count, which supply per-block
// kernels — one indirect call per block of thousands of cells, not one
// per cell.
type Blocks struct {
	spans []span
	offs  []int // offs[b] is span b's output offset; offs[len(spans)] the total
}

// CountBlocks is the count pass. It splits [0, n) into contiguous
// blocks that never straddle a multiple of seg (seg <= 0 means one
// segment), runs count(lo, hi) on every block in parallel, and scans
// the per-block counts into output offsets. The grain is the package's
// automatic policy (grainFor) over the whole range.
func CountBlocks(n, seg int, count func(lo, hi int) int) Blocks {
	if n <= 0 {
		return Blocks{offs: []int{0}}
	}
	if seg <= 0 {
		seg = n
	}
	spans := segBlocks(n, seg)
	offs := make([]int, len(spans)+1)
	ForGrain(len(spans), 1, func(b int) {
		offs[b+1] = count(spans[b].lo, spans[b].hi)
	})
	for b := range spans {
		offs[b+1] += offs[b]
	}
	return Blocks{spans: spans, offs: offs}
}

// Total returns the sum of the block counts: the packed length.
func (bs Blocks) Total() int { return bs.offs[len(bs.spans)] }

// Offset returns the output offset of index i, which must be a block
// boundary: 0, n, or a multiple of the seg passed to CountBlocks. It
// is how a caller reads per-segment totals off a single count pass.
func (bs Blocks) Offset(i int) int {
	b := sort.Search(len(bs.spans), func(b int) bool { return bs.spans[b].lo >= i })
	if b < len(bs.spans) && bs.spans[b].lo != i {
		panic("parallel: Blocks.Offset: index is not a block boundary")
	}
	return bs.offs[b]
}

// EmitBlocks is the copy pass: it runs emit(lo, hi, out) on every block
// of bs in parallel, where out is the block's exact output region of
// dst (its length is the block's count). dst must have length >=
// bs.Total(); a shorter dst panics here, before any block writes.
func EmitBlocks[T any](bs Blocks, dst []T, emit func(lo, hi int, out []T)) {
	if len(dst) < bs.Total() {
		panic(fmt.Sprintf("parallel: EmitBlocks: dst has length %d, the pack needs %d", len(dst), bs.Total()))
	}
	ForGrain(len(bs.spans), 1, func(b int) {
		emit(bs.spans[b].lo, bs.spans[b].hi, dst[bs.offs[b]:bs.offs[b+1]])
	})
}

// Pack returns the elements xs[i] for which keep(i) is true, preserving
// index order. It is the general form of the deterministic "pack out
// the empty cells" primitive the paper's Elements() routine relies on:
// CountBlocks, then EmitBlocks into a result of the exact size — two
// passes and O(blocks) temporary space. The tables call the driver
// directly with closure-free kernels.
func Pack[T any](xs []T, keep func(i int) bool) []T {
	if len(xs) == 0 {
		return nil
	}
	bs := CountBlocks(len(xs), 0, func(lo, hi int) int { return countKept(lo, hi, keep) })
	out := make([]T, bs.Total())
	EmitBlocks(bs, out, func(lo, hi int, region []T) {
		o := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				region[o] = xs[i]
				o++
			}
		}
	})
	return out
}

func countKept(lo, hi int, keep func(i int) bool) int {
	c := 0
	for i := lo; i < hi; i++ {
		if keep(i) {
			c++
		}
	}
	return c
}

// Count returns the number of i in [0, n) for which pred(i) is true.
func Count(n int, pred func(i int) bool) int {
	return CountBlocks(n, 0, func(lo, hi int) int { return countKept(lo, hi, pred) }).Total()
}
