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
// lazily-started set of parked worker goroutines is woken with a job
// token; workers pull contiguous block ranges from the job's shared
// cursor until it is exhausted, then park again.
//
// Deadlock freedom under nesting: a job's completion is defined by its
// outstanding-*block* count reaching zero, not by any particular worker
// finishing. The dispatching goroutine always participates, so a job
// completes even if every pool worker is busy elsewhere (wake tokens
// are best-effort), and pool workers never block on a job — a worker
// that receives a token for an already-finished job just parks again.
// A body may therefore itself call into the parallel package freely.

// job is one ForBlocked dispatch: a blocked loop over [0, n) with the
// given grain. Workers race on cursor for block indexes; the last
// participant to finish a block closes done. The two hot words every
// participant hammers — cursor and remaining — are cache-line padded
// (internal/atomicx) so work distribution does not false-share.
type job struct {
	n, grain int
	nblocks  int
	body     func(lo, hi int)

	cursor    atomicx.PaddedInt64 // next block index to claim
	remaining atomicx.PaddedInt64 // blocks not yet completed
	done      chan struct{}       // closed when remaining hits zero
}

// run participates in the job until the block cursor is exhausted,
// returning the number of blocks this participant executed (used by the
// obs build to attribute work to workers; every participation ends with
// exactly one cursor draw past the last block, which the callers count
// as the cursor-miss gauge). It never blocks; pool workers call it and
// immediately park again, the dispatcher calls it and then waits on
// done.
func (j *job) run() int {
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
			close(j.done)
		}
	}
}

// pool is the package-wide set of parked workers. Workers are started
// lazily as dispatches ask for them and never exit; a parked goroutine
// blocked on a channel receive costs only its (small) stack.
type pool struct {
	jobs    chan *job
	started atomic.Int64 // workers launched so far
	mu      sync.Mutex   // serializes launches
}

// tokenBuffer bounds the wake tokens outstanding across all concurrent
// dispatches. Sends are non-blocking: if the buffer is ever full the
// dispatcher simply keeps the work for itself and its current helpers.
const tokenBuffer = 1024

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

// work is a pool worker's main loop: park on the token channel, help
// with the received job until its cursor is exhausted, park again. The
// worker index is known here for free, so the obs build attributes
// blocks per worker without any identity lookup; a wake that claims
// zero blocks is recorded as stale (the job drained before this worker
// got there).
func (p *pool) work(id int) {
	registerWorker(id)
	for j := range p.jobs {
		claimed := j.run()
		if obs.Enabled {
			obs.RecordWake(claimed == 0)
			obs.RecordCursorMiss(1)
			if claimed > 0 {
				obs.RecordWorkerBlocks(id, uint64(claimed))
			}
		}
	}
}

// dispatch hands j to up to helpers pool workers and participates until
// the job completes. Token sends are best-effort (see tokenBuffer).
// The dispatching goroutine's blocks are credited to worker index 0.
func (p *pool) dispatch(j *job, helpers int) {
	if obs.Enabled {
		obs.RecordDispatch(j.nblocks)
	}
	if obs.CoreEnabled {
		obs.CoreDispatch(j.nblocks, j.n)
	}
	p.ensure(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case p.jobs <- j:
		default:
			// Token buffer full: enough wake-ups are already in
			// flight; the job still completes via its participants.
			i = helpers
		}
	}
	claimed := j.run()
	if obs.Enabled {
		obs.RecordCursorMiss(1)
		if claimed > 0 {
			obs.RecordWorkerBlocks(0, uint64(claimed))
		}
	}
	<-j.done
}

// workerIDs maps goroutine IDs of pool workers to their stable worker
// index. It is written once per worker lifetime (at launch) and read by
// WorkerID, so a sync.Map is uncontended after warm-up.
var workerIDs sync.Map // goroutine id (uint64) -> worker index (int)

func registerWorker(id int) {
	workerIDs.Store(goid(), id)
}

// WorkerID returns a stable small identifier for the calling goroutine:
// pool workers return their index in [1, MaxWorkerID()]; every other
// goroutine — including the one that dispatched the loop, which always
// participates — returns 0. Use it to index per-worker scratch inside
// loop bodies without false sharing (size the scratch with
// MaxWorkerID()+1 and pad the entries, e.g. with atomicx.PaddedCounter).
//
// The lookup parses the runtime's goroutine ID (~1µs): call it once per
// block from a ForBlocked body, never once per element.
func WorkerID() int {
	if v, ok := workerIDs.Load(goid()); ok {
		return v.(int)
	}
	return 0
}

// MaxWorkerID returns the largest WorkerID any goroutine can currently
// report: the number of pool workers started so far. The pool grows
// only when a dispatch requests more parallelism than ever before, so
// scratch sized MaxWorkerID()+1 immediately before a loop is safe for
// that loop unless the worker count (SetNumWorkers, or GOMAXPROCS while
// there is no setting) is raised concurrently (don't).
func MaxWorkerID() int { return int(workers.started.Load()) }

// goid parses the calling goroutine's ID from runtime.Stack's header
// line ("goroutine 123 [running]:"). The stdlib exposes no cheaper
// portable accessor; see WorkerID for the cost contract.
func goid() uint64 {
	var buf [48]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
