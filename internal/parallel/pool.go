package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"phasehash/internal/atomicx"
	"phasehash/internal/chaos"
	"phasehash/internal/obs"
)

// This file is the persistent worker pool behind ForBlocked (and hence
// every loop in the package). The original runtime spawned up to 8*p
// goroutines per parallel call; for the phase workloads the library
// exists for — "insert n keys, barrier, find n keys", repeated every
// round of an iterative app like BFS — that spawn/wake cost is paid on
// every phase and dominates when frontiers are small. Instead, a
// lazily-started set of worker goroutines pulls contiguous block ranges
// from each job's shared cursor until it is exhausted.
//
// Spin, then park. A worker that has finished a job does not park at
// once: it polls the pool's latest-job slot, yielding its P with
// runtime.Gosched between rounds of polls, because in a phase workload
// the next dispatch usually follows within microseconds, while a
// parked goroutine takes tens to hundreds of microseconds to start
// again — longer than a 512-key block takes to run. Only when the spin runs out does
// the worker park on the token channel. A dispatch publishes its job in
// the slot and sends wake tokens only for the helpers it wants beyond
// the workers already spinning; the dispatcher in turn spins for its
// helpers' blocks before it blocks on the job (see wait).
//
// The spin is bounded by a count of yields, never by a clock: the loops
// are on every deterministic path, which must not read the time. The
// bound adapts per worker (see poll), so a process whose dispatches are
// sparse stops spinning after a few misses and its workers park as
// they did before.
//
// Deadlock freedom under nesting: a job's completion is defined by its
// outstanding-*block* count reaching zero, not by any particular worker
// finishing. The dispatching goroutine always participates, so a job
// completes even if every pool worker is busy elsewhere (wake tokens
// and the slot are best-effort), and pool workers never block inside a
// job — a worker that reaches an already-drained job just moves on. A
// body may therefore itself call into the parallel package freely.

// job is one ForBlocked dispatch: a blocked loop over [0, n) with the
// given grain. Workers race on cursor for block indexes; the
// participant that completes the last block closes done. The two hot
// words every participant hammers — cursor and remaining — are
// cache-line padded (internal/atomicx) so work distribution does not
// false-share.
type job struct {
	n, grain int
	nblocks  int
	body     func(lo, hi int)

	cursor    atomicx.PaddedInt64 // next block index to claim
	remaining atomicx.PaddedInt64 // blocks not yet completed
	done      chan struct{}       // closed when remaining hits zero
}

// pool is the package-wide set of workers. Workers are started lazily
// as dispatches ask for them and never exit; a parked goroutine blocked
// on a channel receive costs only its (small) stack.
type pool struct {
	// latest is the job most recently dispatched, until its last block
	// completes and clears it: a finished body, and whatever it
	// captured, must not stay reachable from the pool. A nested or
	// concurrent dispatch overwrites it; the overwritten job keeps the
	// participants it has.
	latest atomic.Pointer[job]
	_      [56]byte // spinners poll latest; keep it on a line of its own

	// spinning counts the workers polling latest right now; a dispatch
	// sends wake tokens only for the helpers it wants beyond them.
	spinning atomicx.PaddedInt64

	jobs    chan *job
	started atomic.Int64 // workers launched so far
	mu      sync.Mutex   // serializes launches
}

// tokenBuffer bounds the wake tokens outstanding across all concurrent
// dispatches. Sends are non-blocking: if the buffer is ever full the
// dispatcher simply keeps the work for itself and its current helpers.
const tokenBuffer = 1024

// The adaptive spin bound, in runtime.Gosched yields; between yields a
// spinner polls up to pollsPerYield times. A spin that finds a job
// doubles the worker's bound up to spinMax; one that runs out quarters
// it; below spinMin the worker parks without spinning, and each token
// wake doubles the bound again. On a 2-vCPU Xeon (go1.24) a poll takes
// ~1.5 ns and a yield ~0.15 µs, so a yield unit is ~0.9 µs: spinMax
// spins ~115 µs, about the mean time a parked worker took to start
// there while its waker stayed busy (183 µs), and spinMin ~4 µs. Yielding after every poll instead bounces both
// the spinner and the dispatcher through the global run queue, which
// often leaves them sharing one P (EXPERIMENTS.md, "Spin before
// parking").
const (
	spinMax       = 128
	spinMin       = 4
	pollsPerYield = 512
)

var workers = &pool{jobs: make(chan *job, tokenBuffer)}

// ensure launches workers until at least k exist.
func (p *pool) ensure(k int) {
	if int(p.started.Load()) >= k {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for int(p.started.Load()) < k {
		id := int(p.started.Load()) + 1
		go p.work(id)
		p.started.Add(1)
	}
}

// run participates in j until the block cursor is exhausted, returning
// the number of blocks this participant executed (every participation
// ends with exactly one cursor draw past the last block). It never
// blocks. The
// participant that completes the last block clears the latest-job slot
// (if it still holds j) before closing done, so the pool keeps nothing
// of a finished job but a wake token still in flight.
func (p *pool) run(j *job) int {
	if chaos.Enabled {
		chaos.SkewWorker(chaos.SiteParallelWorker)
	}
	claimed := 0
	for {
		b := int(j.cursor.Add(1)) - 1
		if b >= j.nblocks {
			return claimed
		}
		lo := b * j.grain
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.body(lo, hi)
		claimed++
		if j.remaining.Add(-1) == 0 {
			p.latest.CompareAndSwap(j, nil)
			close(j.done)
		}
	}
}

// claimable returns the latest job if it still has an unclaimed block.
func (p *pool) claimable() *job {
	if j := p.latest.Load(); j != nil && int(j.cursor.Load()) < j.nblocks {
		return j
	}
	return nil
}

// poll spins for a claimable job for up to *spin yields and adapts the
// bound: doubled (to spinMax) on a hit, quartered on a miss. A bound
// below spinMin returns nil at once without entering the spinning
// count. A worker that runs out leaves the spinning count and then
// checks the slot once more: a dispatch that read the count before the
// worker left it sent no token for it, but stored its job first, so
// the last check sees that job (or a later one, or its completion).
func (p *pool) poll(spin *int) *job {
	if *spin < spinMin {
		return nil
	}
	p.spinning.Add(1)
	for i := 0; i < *spin; i++ {
		for k := 0; k < pollsPerYield; k++ {
			if j := p.claimable(); j != nil {
				p.spinning.Add(-1)
				*spin = min(2**spin, spinMax)
				return j
			}
		}
		runtime.Gosched()
	}
	p.spinning.Add(-1)
	*spin = max(*spin/4, 1) // never 0, or no token wake could re-arm it
	return p.claimable()
}

// work is a pool worker's main loop: spin for the next job, park on the
// token channel when the spin runs out, help with the job until its
// cursor is exhausted, repeat. Only workers 1..GOMAXPROCS-1 spin, one
// per P besides the dispatcher's: more spinners would only take Ps from
// goroutines with work, and at GOMAXPROCS 1 nothing spins. Each token
// wake doubles the bound. The counter core records each participation
// once, on the worker's own stripe: its blocks, and whether it began
// from a spin or from a park.
func (p *pool) work(id int) {
	spin := spinMin
	for {
		var j *job
		if id < runtime.GOMAXPROCS(0) {
			j = p.poll(&spin)
		}
		hit := j != nil
		if !hit {
			j = <-p.jobs
			spin = min(2*spin, spinMax)
		}
		claimed := p.run(j)
		if obs.CoreEnabled {
			obs.CoreHelperRun(id, claimed, hit)
		}
	}
}

// dispatch publishes j to the spinning workers, wakes parked ones for
// whatever of helpers they do not cover, participates until the cursor
// is exhausted, and waits for the helpers' blocks. Token sends are
// best-effort (see tokenBuffer).
func (p *pool) dispatch(j *job, helpers int) {
	if obs.CoreEnabled {
		obs.CoreDispatch(j.nblocks, j.n)
	}
	p.ensure(helpers)
	p.latest.Store(j)
	for i := int(p.spinning.Load()); i < helpers; i++ {
		select {
		case p.jobs <- j:
		default:
			// Token buffer full: enough wake-ups are already in
			// flight; the job still completes via its participants.
			i = helpers
		}
	}
	p.run(j)
	j.wait()
}

// wait returns once every block of j has completed. It spins like a
// worker (spinMax yields of pollsPerYield polls) before it blocks on
// done: a dispatcher parked on done is readied onto the P of the helper
// that closes it, and that helper — about to spin for the next job —
// is pushed off its own P until the scheduler wakes an idle one.
// Every block's effects happen before its remaining decrement, so
// returning on remaining == 0 sees them all.
func (j *job) wait() {
	for i := 0; i < spinMax; i++ {
		for k := 0; k < pollsPerYield; k++ {
			if j.remaining.Load() == 0 {
				return
			}
		}
		runtime.Gosched()
	}
	<-j.done
}
