//go:build obs

package obs

import (
	"context"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"
)

// Enabled reports whether this binary was built with the obs tag.
const Enabled = true

const (
	// numStripes is the number of padded histogram sinks. Table hooks
	// pick a stripe from the operation's own home-cell index, so
	// concurrent increments spread across distinct cache lines. Must be
	// a power of two.
	numStripes = 64
	stripeMask = numStripes - 1

	// TimelineCap bounds the recorded phase timeline; further spans are
	// counted in SpansDropped instead of growing without bound during
	// soaks.
	TimelineCap = 4096

	cacheLine = 64
	sinkBytes = 3 * NumProbeBuckets * 8
)

// sink is one stripe of per-class probe histograms, padded out to a
// cache-line multiple so adjacent stripes never share a line. All
// fields are atomics: stripes reduce contention, they do not guarantee
// exclusivity.
type sink struct {
	insertH [NumProbeBuckets]atomic.Uint64
	findH   [NumProbeBuckets]atomic.Uint64
	deleteH [NumProbeBuckets]atomic.Uint64
	_       [(cacheLine - sinkBytes%cacheLine) % cacheLine]byte
}

var (
	sinks [numStripes]sink

	// epochLatencyH is the admit-to-complete latency histogram in µs
	// (shared, atomic buckets: epoch completions are batched, far less
	// frequent than probe-path ops, so striping buys nothing).
	epochLatencyH [NumProbeBuckets]atomic.Uint64

	processStart = time.Now()

	timeline struct {
		mu      sync.Mutex
		spans   []PhaseSpan
		dropped uint64
	}
)

// RecordInsert adds one completed insert of the given probe length to
// the insert histogram. stripe is any value already at hand that varies
// across concurrent operations (the home-cell index).
func RecordInsert(stripe, steps int) { sinks[stripe&stripeMask].insertH[BucketOf(steps)].Add(1) }

// RecordFind adds one completed find to the find histogram.
func RecordFind(stripe, steps int) { sinks[stripe&stripeMask].findH[BucketOf(steps)].Add(1) }

// RecordDelete adds one completed delete's victim-scan length to the
// delete histogram.
func RecordDelete(stripe, steps int) { sinks[stripe&stripeMask].deleteH[BucketOf(steps)].Add(1) }

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

// takeHistograms merges every stripe's histograms, the epoch latency
// histogram and the timeline into s.
func takeHistograms(s *Snapshot) {
	for i := range sinks {
		k := &sinks[i]
		for b := 0; b < NumProbeBuckets; b++ {
			s.InsertProbes[b] += k.insertH[b].Load()
			s.FindProbes[b] += k.findH[b].Load()
			s.DeleteProbes[b] += k.deleteH[b].Load()
		}
	}
	for b := range epochLatencyH {
		s.EpochLatency[b] = epochLatencyH[b].Load()
	}
	timeline.mu.Lock()
	s.Spans = append([]PhaseSpan(nil), timeline.spans...)
	s.SpansDropped = timeline.dropped
	timeline.mu.Unlock()
}

// resetHistograms zeroes every histogram and the timeline.
func resetHistograms() {
	for i := range sinks {
		k := &sinks[i]
		for b := 0; b < NumProbeBuckets; b++ {
			k.insertH[b].Store(0)
			k.findH[b].Store(0)
			k.deleteH[b].Store(0)
		}
	}
	for b := range epochLatencyH {
		epochLatencyH[b].Store(0)
	}
	timeline.mu.Lock()
	timeline.spans = nil
	timeline.dropped = 0
	timeline.mu.Unlock()
}
