// Package parallel provides a small nested fork-join runtime over
// goroutines: blocked parallel loops, parallel reduction, prefix sums
// (scans), packing, and sorting. It plays the role the Cilk Plus runtime
// plays in the paper "Phase-Concurrent Hash Tables for Determinism"
// (Shun & Blelloch, SPAA 2014): all parallel phases of the hash tables,
// applications and benchmarks are expressed with these primitives.
//
// The package is deterministic in its outputs: every function computes a
// result that is independent of how goroutines are scheduled. Work is
// split into contiguous blocks so that per-block results can be combined
// in index order.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// workersSet is the worker count SetNumWorkers fixed, or 0 while the
// count follows runtime.GOMAXPROCS(0). Following it per call, rather
// than reading it once at start-up, lets go test -cpu and any later
// GOMAXPROCS change reach every loop; the benchmark drivers set a count
// for thread-scaling sweeps (Figure 4 of the paper).
var workersSet atomic.Int64

// SetNumWorkers sets the number of workers used by subsequent parallel
// operations; n < 1 makes the count follow runtime.GOMAXPROCS(0) again.
// It returns the previous setting, 0 when the count was following
// GOMAXPROCS, so defer SetNumWorkers(SetNumWorkers(n)) restores it.
func SetNumWorkers(n int) int {
	if n < 1 {
		n = 0
	}
	return int(workersSet.Swap(int64(n)))
}

// NumWorkers reports the current worker count: the SetNumWorkers
// setting, or runtime.GOMAXPROCS(0) when there is none.
func NumWorkers() int {
	if n := workersSet.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// MinGrain is the smallest block size For will create, to keep dispatch
// overhead negligible relative to useful work: a loop of at most
// MinGrain iterations runs inline on the caller. Callers that dispatch
// their own coarse units (one per shard, say) use it as the same bound.
const MinGrain = 512

// defaultBlocksPerWorker is the automatic grain policy's oversplit
// factor: enough blocks per worker that dynamic claiming smooths load
// imbalance, few enough that dispatch overhead stays negligible.
const defaultBlocksPerWorker = 8

// grainFor is the single source of the package's grain policy: the
// explicit grain when one is given, otherwise ~defaultBlocksPerWorker
// blocks per worker for load balance, clamped below by MinGrain.
// ForBlocked and makeBlocks (the two places that need it) both call
// this helper so the policy cannot drift between the loop runtime and
// the block planner.
func grainFor(n, p, grain int) int {
	if grain > 0 {
		return grain
	}
	g := n / (defaultBlocksPerWorker * p)
	if g < MinGrain {
		g = MinGrain
	}
	return g
}

// For runs body(i) for every i in [0, n) using up to NumWorkers()
// goroutines. Iterations are grouped into contiguous blocks; the grain
// (block size) is chosen automatically. body must be safe to call
// concurrently for distinct i.
func For(n int, body func(i int)) {
	ForGrain(n, 0, body)
}

// ForGrain is For with an explicit grain size (0 chooses automatically).
// A larger grain amortizes scheduling overhead for very cheap bodies; a
// smaller grain improves load balance for irregular bodies.
func ForGrain(n, grain int, body func(i int)) {
	ForBlocked(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForBlocked runs body(lo, hi) over disjoint contiguous blocks covering
// [0, n). It is the primitive the other loops are built on; use it
// directly when per-block setup (e.g. a local buffer) matters. Blocks
// are claimed dynamically from a shared cursor by the calling goroutine
// and up to NumWorkers()-1 persistent pool workers (see pool.go), so a
// dispatch costs a channel send per helper instead of a goroutine spawn
// per block.
func ForBlocked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	// A loop no longer than its grain (MinGrain when automatic) runs
	// inline at any worker count, so it skips NumWorkers, whose
	// GOMAXPROCS read takes the scheduler's lock.
	if n <= grain || (grain <= 0 && n <= MinGrain) {
		body(0, n)
		return
	}
	p := NumWorkers()
	if p == 1 {
		body(0, n)
		return
	}
	grain = grainFor(n, p, grain)
	nblocks := (n + grain - 1) / grain
	j := &job{n: n, grain: grain, nblocks: nblocks, body: body, done: make(chan struct{})}
	j.remaining.Store(int64(nblocks))
	helpers := p - 1
	if helpers > nblocks-1 {
		helpers = nblocks - 1
	}
	workers.dispatch(j, helpers)
}

// Do runs the given functions in parallel and waits for all of them
// (parallel invoke / spawn-sync). Like every loop here it runs on the
// persistent pool; any function may execute on any participant.
func Do(fs ...func()) {
	if len(fs) == 0 {
		return
	}
	if len(fs) == 1 || NumWorkers() == 1 {
		for _, f := range fs {
			f()
		}
		return
	}
	ForGrain(len(fs), 1, func(i int) { fs[i]() })
}

// Reduce combines f(i) for i in [0, n) with the associative, commutative
// operation op, starting from the identity value id. The reduction order
// within and across blocks is fixed (index order per block, block order
// at the top), so the result is deterministic even for non-commutative op
// as long as op is associative.
func Reduce[T any](n int, id T, op func(a, b T) T, f func(i int) T) T {
	if n <= 0 {
		return id
	}
	type block struct {
		lo, hi int
	}
	blocks := makeBlocks(n)
	partial := make([]T, len(blocks))
	ForGrain(len(blocks), 1, func(b int) {
		acc := id
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			acc = op(acc, f(i))
		}
		partial[b] = acc
	})
	acc := id
	for _, pv := range partial {
		acc = op(acc, pv)
	}
	return acc
}

type span struct{ lo, hi int }

// makeBlocks splits [0,n) into contiguous spans sized for the current
// worker count (same policy as ForBlocked, via grainFor).
func makeBlocks(n int) []span { return segBlocks(nil, n, n) }

// segBlocks is makeBlocks over [0,n) cut into segments of seg indexes
// (the last may be shorter): no span straddles a multiple of seg, and a
// segment shorter than the grain is one span. The grain is computed
// over the whole range, so the total block count stays ~8 per worker
// however the range is segmented. The spans are appended to dst[:0].
func segBlocks(dst []span, n, seg int) []span {
	grain := grainFor(n, NumWorkers(), 0)
	if grain > seg {
		grain = seg
	}
	if dst == nil {
		dst = make([]span, 0, (n+grain-1)/grain)
	}
	dst = dst[:0]
	for s := 0; s < n; s += seg {
		end := min(s+seg, n)
		for lo := s; lo < end; lo += grain {
			dst = append(dst, span{lo, min(lo+grain, end)})
		}
	}
	return dst
}
