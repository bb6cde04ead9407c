//go:build obs

package obs

import (
	"context"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"phasehash/internal/atomicx"
)

// Enabled reports whether this binary was built with the obs tag.
const Enabled = true

const (
	// numStripes is the number of padded counter sinks. Table-path hooks
	// pick a stripe from the operation's own home-cell index, pool hooks
	// from the worker id; either way concurrent increments spread across
	// distinct cache lines. Must be a power of two.
	numStripes = 64
	stripeMask = numStripes - 1

	// maxWorkers bounds the per-worker block counters (indexed modulo).
	maxWorkers = 256

	// TimelineCap bounds the recorded phase timeline; further spans are
	// counted in SpansDropped instead of growing without bound during
	// soaks.
	TimelineCap = 4096

	cacheLine = 64
	sinkBytes = NumCounters*8 + 3*NumProbeBuckets*8
)

// sink is one stripe of counters plus per-class probe histograms,
// padded out to a cache-line multiple so adjacent stripes never share a
// line. All fields are atomics: stripes reduce contention, they do not
// guarantee exclusivity.
type sink struct {
	counters [NumCounters]atomic.Uint64
	insertH  [NumProbeBuckets]atomic.Uint64
	findH    [NumProbeBuckets]atomic.Uint64
	deleteH  [NumProbeBuckets]atomic.Uint64
	_        [(cacheLine - sinkBytes%cacheLine) % cacheLine]byte
}

var (
	sinks        [numStripes]sink
	workerBlocks [maxWorkers]atomicx.PaddedCounter

	// shardImbalancePm is a WriteMax gauge (per-mille, 1000 = balanced).
	shardImbalancePm uint64

	// epochQueueDepth is a WriteMax gauge of the epoch admission queue.
	epochQueueDepth uint64

	// epochLatencyH is the admit-to-complete latency histogram in µs
	// (shared, atomic buckets: epoch completions are batched, far less
	// frequent than per-probe hooks, so striping buys nothing).
	epochLatencyH [NumProbeBuckets]atomic.Uint64

	processStart = time.Now()

	timeline struct {
		mu      sync.Mutex
		spans   []PhaseSpan
		dropped uint64
	}
)

// RecordInsert publishes the local tallies of one completed insert
// operation: probe steps walked, CAS attempts/failures and
// lower-priority displacements carried. stripe is any value already at
// hand that varies across concurrent operations (the home-cell index).
func RecordInsert(stripe int, steps, casAttempts, casFailures, displacements uint64) {
	s := &sinks[stripe&stripeMask]
	s.counters[CtrInsertOps].Add(1)
	s.counters[CtrInsertProbeSteps].Add(steps)
	s.counters[CtrInsertCASAttempts].Add(casAttempts)
	s.counters[CtrInsertCASFailures].Add(casFailures)
	s.counters[CtrInsertDisplacements].Add(displacements)
	s.insertH[BucketOf(int(steps))].Add(1)
}

// RecordFind publishes one completed find operation.
func RecordFind(stripe int, steps uint64, hit bool) {
	s := &sinks[stripe&stripeMask]
	s.counters[CtrFindOps].Add(1)
	s.counters[CtrFindProbeSteps].Add(steps)
	if hit {
		s.counters[CtrFindHits].Add(1)
	}
	s.findH[BucketOf(int(steps))].Add(1)
}

// RecordCompactFind publishes one completed compact-table find: probe
// steps (slot distance to the verdict lane), ctrl words loaded by the
// SWAR scanner and fingerprint false positives (candidates whose cell
// held a different key). Op/step/hit tallies flow into the shared find
// counters so compact and flat runs stay comparable.
func RecordCompactFind(stripe int, steps, ctrlWords, falsePos uint64, hit bool) {
	s := &sinks[stripe&stripeMask]
	s.counters[CtrFindOps].Add(1)
	s.counters[CtrFindProbeSteps].Add(steps)
	if hit {
		s.counters[CtrFindHits].Add(1)
	}
	s.counters[CtrFindCtrlWords].Add(ctrlWords)
	s.counters[CtrFindFPFalse].Add(falsePos)
	s.findH[BucketOf(int(steps))].Add(1)
}

// RecordDelete publishes one completed delete operation: victim-scan
// steps, replacement CASes won (the recursive hole-fill depth) and
// replacement CASes lost to concurrent deletes.
func RecordDelete(stripe int, steps, replacements, casFailures uint64) {
	s := &sinks[stripe&stripeMask]
	s.counters[CtrDeleteOps].Add(1)
	s.counters[CtrDeleteProbeSteps].Add(steps)
	s.counters[CtrDeleteReplacements].Add(replacements)
	s.counters[CtrDeleteCASFailures].Add(casFailures)
	s.deleteH[BucketOf(int(steps))].Add(1)
}

// RecordGrow counts one published resize and the elements it rehashed.
func RecordGrow(moved uint64) {
	s := &sinks[0]
	s.counters[CtrGrowEvents].Add(1)
	s.counters[CtrGrowCellsMoved].Add(moved)
}

// RecordDispatch counts one pooled loop dispatch and its block total.
func RecordDispatch(nblocks int) {
	s := &sinks[0]
	s.counters[CtrParDispatches].Add(1)
	s.counters[CtrParBlocks].Add(uint64(nblocks))
}

// RecordWorkerBlocks credits blocks executed to pool worker `worker`
// (index 0 is the dispatching goroutine).
func RecordWorkerBlocks(worker int, blocks uint64) {
	workerBlocks[worker%maxWorkers].Add(blocks)
}

// RecordWake counts one consumed wake token; stale means the woken
// worker found the job already drained.
func RecordWake(stale bool) {
	s := &sinks[1]
	s.counters[CtrParWakes].Add(1)
	if stale {
		s.counters[CtrParStaleWakes].Add(1)
	}
}

// RecordCursorMiss counts cursor draws past the last block of a job.
func RecordCursorMiss(n uint64) {
	sinks[2].counters[CtrParCursorMiss].Add(n)
}

// RecordShardBulk publishes one sharded bulk-kernel invocation from its
// partition offsets (len = shards+1): run count, element total, and the
// imbalance gauge max-run * shards / total (per-mille).
func RecordShardBulk(offsets []int) {
	shards := len(offsets) - 1
	if shards <= 0 {
		return
	}
	total := offsets[shards] - offsets[0]
	runs, maxRun := 0, 0
	for i := 0; i < shards; i++ {
		n := offsets[i+1] - offsets[i]
		if n > 0 {
			runs++
		}
		if n > maxRun {
			maxRun = n
		}
	}
	s := &sinks[3]
	s.counters[CtrShardBulkCalls].Add(1)
	s.counters[CtrShardBulkRuns].Add(uint64(runs))
	s.counters[CtrShardBulkElems].Add(uint64(total))
	if total > 0 {
		atomicx.WriteMax(&shardImbalancePm, uint64(maxRun)*uint64(shards)*1000/uint64(total))
	}
}

// RecordEpochAdmit publishes one admitted epoch op and the admission
// queue depth it observed (fed to the max-depth gauge).
func RecordEpochAdmit(depth int) {
	sinks[4].counters[CtrEpochAdmitted].Add(1)
	atomicx.WriteMax(&epochQueueDepth, uint64(depth))
}

// RecordEpochShed counts one shed op: overload = refused at admission,
// otherwise shed at flush time for an expired deadline.
func RecordEpochShed(overload bool) {
	if overload {
		sinks[4].counters[CtrEpochShedOverload].Add(1)
	} else {
		sinks[4].counters[CtrEpochShedDeadline].Add(1)
	}
}

// RecordEpochCancel counts one cancelled result delivery (client ctx
// cancellation or chaos-injected mid-epoch cancellation).
func RecordEpochCancel() {
	sinks[4].counters[CtrEpochCancelled].Add(1)
}

// RecordEpochFlush publishes one flushed epoch: ops executed, whether
// the epoch came from splitting an oversized pending batch, and how
// many insert futures resolved with ErrFull.
func RecordEpochFlush(ops int, split bool, insertFull int) {
	s := &sinks[5]
	s.counters[CtrEpochFlushes].Add(1)
	s.counters[CtrEpochFlushOps].Add(uint64(ops))
	if split {
		s.counters[CtrEpochSplits].Add(1)
	}
	if insertFull > 0 {
		s.counters[CtrEpochInsertFull].Add(uint64(insertFull))
	}
}

// RecordEpochLatency adds one op's admit-to-complete latency (µs) to
// the epoch latency histogram.
func RecordEpochLatency(us uint64) {
	epochLatencyH[BucketOf(int(us))].Add(1)
}

// ActiveSpan is an in-progress phase-timeline span: one maximal
// interval of continuous phase activity on a PhaseGuard. It doubles as
// a runtime/trace user task, so `go tool trace` shows phases under
// User-defined tasks. A nil *ActiveSpan is safe for all methods.
type ActiveSpan struct {
	name  string
	start int64
	ops   atomic.Uint64
	task  *trace.Task
}

// AddOp counts one guarded operation inside the span.
func (sp *ActiveSpan) AddOp() {
	if sp != nil {
		sp.ops.Add(1)
	}
}

// PhaseStart opens a span for the named phase and starts the matching
// trace task. Phase starts and ends may occur on different goroutines
// (whichever Enter claimed idle, whichever Exit was last out), which is
// why spans are trace *tasks*, not goroutine-bound regions.
func PhaseStart(name string) *ActiveSpan {
	sp := &ActiveSpan{name: name, start: int64(time.Since(processStart))}
	_, sp.task = trace.NewTask(context.Background(), "phase:"+name)
	return sp
}

// PhaseEnd closes the span, ends its trace task and appends it to the
// timeline (bounded by TimelineCap).
func PhaseEnd(sp *ActiveSpan) {
	if sp == nil {
		return
	}
	end := int64(time.Since(processStart))
	if sp.task != nil {
		sp.task.End()
	}
	timeline.mu.Lock()
	if len(timeline.spans) < TimelineCap {
		timeline.spans = append(timeline.spans, PhaseSpan{
			Phase: sp.name, StartNs: sp.start, EndNs: end, Ops: sp.ops.Load(),
		})
	} else {
		timeline.dropped++
	}
	timeline.mu.Unlock()
}

// TakeSnapshot merges every stripe into one deterministic Snapshot.
// Merging is pure addition, so the result does not depend on which
// stripe (or worker) recorded what. Callers should take snapshots at
// quiescence; a snapshot raced with live operations is still safe, just
// torn across counters.
func TakeSnapshot() Snapshot {
	snap := Snapshot{Enabled: true}
	for i := range sinks {
		s := &sinks[i]
		for c := 0; c < NumCounters; c++ {
			snap.Counters[c] += s.counters[c].Load()
		}
		for b := 0; b < NumProbeBuckets; b++ {
			snap.InsertProbes[b] += s.insertH[b].Load()
			snap.FindProbes[b] += s.findH[b].Load()
			snap.DeleteProbes[b] += s.deleteH[b].Load()
		}
	}
	snap.MaxShardImbalancePm = atomicx.Load(&shardImbalancePm)
	snap.MaxEpochQueueDepth = atomicx.Load(&epochQueueDepth)
	for b := 0; b < NumProbeBuckets; b++ {
		snap.EpochLatency[b] = epochLatencyH[b].Load()
	}
	last := -1
	var blocks [maxWorkers]uint64
	for i := range workerBlocks {
		if v := workerBlocks[i].Load(); v != 0 {
			blocks[i] = v
			last = i
		}
	}
	if last >= 0 {
		snap.WorkerBlocks = append([]uint64(nil), blocks[:last+1]...)
	}
	timeline.mu.Lock()
	snap.Spans = append([]PhaseSpan(nil), timeline.spans...)
	snap.SpansDropped = timeline.dropped
	timeline.mu.Unlock()
	return snap
}

// Reset zeroes every sink, the worker-block counters, the imbalance
// gauge and the timeline. Call it between measured sections (phbench
// resets before each cell so per-distribution stats don't bleed).
func Reset() {
	for i := range sinks {
		s := &sinks[i]
		for c := 0; c < NumCounters; c++ {
			s.counters[c].Store(0)
		}
		for b := 0; b < NumProbeBuckets; b++ {
			s.insertH[b].Store(0)
			s.findH[b].Store(0)
			s.deleteH[b].Store(0)
		}
	}
	for i := range workerBlocks {
		workerBlocks[i].Store(0)
	}
	atomicx.Store(&shardImbalancePm, 0)
	atomicx.Store(&epochQueueDepth, 0)
	for b := range epochLatencyH {
		epochLatencyH[b].Store(0)
	}
	timeline.mu.Lock()
	timeline.spans = nil
	timeline.dropped = 0
	timeline.mu.Unlock()
}
