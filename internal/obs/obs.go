// Package obs is the runtime telemetry substrate (phasestats): counters,
// probe-length histograms, phase timelines and a live debug endpoint for
// the phase-concurrent tables and the parallel runtime.
//
// The paper's performance claims (Section 6) are explained by microscopic
// quantities — probe-sequence lengths under priority-ordered probing, CAS
// retry rates under contention, displacement-chain lengths on insert,
// per-phase wall time — that timings alone cannot show ("Concurrent Hash
// Tables: Fast and General?(!)", Maier et al., makes the same point for
// open addressing generally). This package makes those quantities
// observable in our own runs without costing the benchmarked paths
// anything when it is off.
//
// Like internal/chaos, the package has two build-tag implementations:
//
//   - default (no tag): every hook is a no-op behind the constant
//     Enabled == false. Call sites are written
//     `if obs.Enabled { obs.RecordInsert(...) }`, so the compiler deletes
//     them entirely; `make obs-sizecheck` asserts with `go tool nm` that
//     no Record* symbol survives linking an untagged binary. The CI
//     overhead gate (`make tune-overhead`) is a self-contained A/B: the
//     2^20 uniform insert benchmark built with -tags nostats against the
//     same benchmark built untagged, from one tree in one run.
//   - `-tags obs`: the hooks are live. Hot paths accumulate locally (in
//     registers) and publish once per operation into cache-line-padded
//     striped sinks; Snapshot() merges the sinks into one deterministic
//     struct.
//
// Sink design: counter increments must not contend, but Go offers no
// cheap goroutine-local storage. Where a worker identity is free — the pool
// loops in internal/parallel, which know their worker index — sinks are
// indexed per worker. On the per-element table paths the operation's own
// probe origin picks the stripe instead: different elements hash to
// different stripes, so increments spread across padded cache lines
// without any identity lookup, and merging is oblivious to which stripe
// got what. Schedule-independent quantities (operation counts) therefore
// merge to schedule-independent totals, which the detres grid asserts.
//
// What is deterministic: operation counts (inserts, finds, deletes,
// find hits) for a given workload. What is not: probe steps, CAS
// failures, displacement and replacement-chain work — those measure the *schedule*, which is exactly why they
// are worth recording. Timings and spans are wall-clock and never
// deterministic.
//
// A minimal subset — the always-on counter core — lives OUTSIDE the obs tag: striped
// op/probe-step counters, the shard-imbalance gauge and the pool
// dispatch counters (corestats.go, core_on.go). Production binaries
// carry it by default so policy decisions have inputs; -tags nostats
// compiles it out for the A/B overhead gate, exactly as untagged builds
// compile out the Record* hooks. The Core* hooks batch per block on the
// bulk paths, so the measured overhead of the core stays within the 1%
// gate. obs builds record both layers into separate stores; Snapshot
// and CoreSnapshot never mix.
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"phasehash/internal/chaos"
)

// ErrDisabled is returned by Serve when the binary was built without
// the obs tag.
var ErrDisabled = errors.New("obs: built without -tags obs")

// Counter identifies one merged telemetry counter. The set covers the
// probe loops (word, compact and pointer tables), the
// growing table's rehashes, the parallel pool and the
// sharded bulk kernels.
type Counter uint8

// Counters.
const (
	// Insert path (WordTable/PtrTable insertLoopFrom, per-element and
	// bulk, flat and sharded).
	CtrInsertOps           Counter = iota // insert operations completed
	CtrInsertProbeSteps                   // cells stepped past across all inserts
	CtrInsertCASAttempts                  // claim/merge/displace CASes issued
	CtrInsertCASFailures                  // CASes that lost (incl. chaos-forced)
	CtrInsertDisplacements                // lower-priority elements displaced and carried

	// Find path (findFrom).
	CtrFindOps        // find operations completed
	CtrFindProbeSteps // cells stepped past across all finds
	CtrFindHits       // finds that located their key

	// Delete path (deleteFrom).
	CtrDeleteOps          // delete operations completed
	CtrDeleteProbeSteps   // cells stepped in the victim scan
	CtrDeleteReplacements // replacement CASes won: recursive hole-fill depth
	CtrDeleteCASFailures  // replacement CASes lost to concurrent deletes

	// GrowTable resizes: grow traffic, never counted as insert ops.
	CtrGrowEvents     // resized tables published
	CtrGrowCellsMoved // elements rehashed old -> new

	// Parallel pool (internal/parallel).
	CtrParDispatches // pooled ForBlocked dispatches
	CtrParBlocks     // blocks dispatched (sum of nblocks per dispatch)
	CtrParWakes      // pool-worker wake tokens consumed
	CtrParStaleWakes // wakes that found the job already drained
	CtrParCursorMiss // cursor draws past the last block (claim overshoot)

	// Sharded bulk kernels (radix partition, one worker per shard run).
	CtrShardBulkCalls // bulk kernel invocations
	CtrShardBulkRuns  // shard runs handed to owners
	CtrShardBulkElems // elements across all runs

	// Epoch scheduler (internal/epoch).
	CtrEpochAdmitted     // ops admitted past the admission gate
	CtrEpochShedOverload // ops refused at admission (queue at limit, fail-fast)
	CtrEpochShedDeadline // ops shed at flush time (deadline expired before the epoch)
	CtrEpochCancelled    // result deliveries cancelled (client ctx / chaos injection)
	CtrEpochFlushes      // epochs flushed through the table
	CtrEpochFlushOps     // ops executed across all flushed epochs
	CtrEpochSplits       // oversized pending batches split into extra epochs
	CtrEpochInsertFull   // insert futures resolved with ErrFull

	// Compact fingerprint-probed finds (CompactTable findFrom; op
	// counts flow into the shared find counters above).
	CtrFindCtrlWords // ctrl words loaded across all compact finds
	CtrFindFPFalse   // fingerprint matches whose cell held a different key

	NumCounters = int(iota)
)

// counterNames are the stable JSON/expvar keys. Names that describe the
// same code sites as chaos injection points reuse the chaos site-name
// constants (internal/chaos/sitenames.go) so the two vocabularies
// cannot drift.
var counterNames = [NumCounters]string{
	CtrInsertOps:           "insert-ops",
	CtrInsertProbeSteps:    "insert-probe-steps",
	CtrInsertCASAttempts:   "insert-cas-attempts",
	CtrInsertCASFailures:   "insert-cas-failures",
	CtrInsertDisplacements: "insert-displacements",
	CtrFindOps:             "find-ops",
	CtrFindProbeSteps:      "find-probe-steps",
	CtrFindHits:            "find-hits",
	CtrDeleteOps:           "delete-ops",
	CtrDeleteProbeSteps:    "delete-probe-steps",
	CtrDeleteReplacements:  "delete-replacements",
	CtrDeleteCASFailures:   "delete-cas-failures",
	CtrGrowEvents:          "grow-events",
	CtrGrowCellsMoved:      chaos.SiteNameGrowRehash + "-cells",
	CtrParDispatches:       "parallel-dispatches",
	CtrParBlocks:           "parallel-blocks",
	CtrParWakes:            chaos.SiteNameParallelWorker + "-wakes",
	CtrParStaleWakes:       chaos.SiteNameParallelWorker + "-stale-wakes",
	CtrParCursorMiss:       "parallel-cursor-miss",
	CtrShardBulkCalls:      "shard-bulk-calls",
	CtrShardBulkRuns:       "shard-bulk-runs",
	CtrShardBulkElems:      "shard-bulk-elems",
	CtrEpochAdmitted:       chaos.SiteNameEpochAdmit + "-ops",
	CtrEpochShedOverload:   chaos.SiteNameEpochAdmit + "-shed-overload",
	CtrEpochShedDeadline:   chaos.SiteNameEpochFlush + "-shed-deadline",
	CtrEpochCancelled:      chaos.SiteNameEpochCancel + "-ops",
	CtrEpochFlushes:        chaos.SiteNameEpochFlush + "-epochs",
	CtrEpochFlushOps:       chaos.SiteNameEpochFlush + "-ops",
	CtrEpochSplits:         chaos.SiteNameEpochFlush + "-splits",
	CtrEpochInsertFull:     chaos.SiteNameEpochFlush + "-insert-full",
	CtrFindCtrlWords:       "find-ctrl-words",
	CtrFindFPFalse:         "find-fp-false-positives",
}

// String returns the counter's stable name.
func (c Counter) String() string {
	if int(c) < NumCounters {
		return counterNames[c]
	}
	return "unknown-counter"
}

// NumProbeBuckets is the histogram width: power-of-two buckets covering
// probe distances 0, 1, [2,4), [4,8), ... with the last bucket open.
const NumProbeBuckets = 16

// Histogram is a mergeable power-of-two-bucket histogram of probe
// lengths. Bucket 0 counts distance-0 probes (element on its home
// cell), bucket b >= 1 counts distances in [2^(b-1), 2^b), and the last
// bucket is open-ended. Merging histograms is element-wise addition, so
// per-sink (or per-worker) histograms over a partitioned op stream merge
// to exactly the serial histogram of the whole stream — the property the
// obs tests assert.
type Histogram [NumProbeBuckets]uint64

// BucketOf returns the bucket index for probe distance d.
func BucketOf(d int) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) // d in [2^(b-1), 2^b)
	if b >= NumProbeBuckets {
		return NumProbeBuckets - 1
	}
	return b
}

// BucketLo returns the smallest distance counted by bucket b.
func BucketLo(b int) int {
	if b <= 0 {
		return 0
	}
	return 1 << (b - 1)
}

// Add counts one probe of distance d.
func (h *Histogram) Add(d int) { h[BucketOf(d)]++ }

// Merge adds o into h element-wise.
func (h *Histogram) Merge(o Histogram) {
	for i := range h {
		h[i] += o[i]
	}
}

// Total returns the number of recorded probes.
func (h Histogram) Total() uint64 {
	var t uint64
	for _, v := range h {
		t += v
	}
	return t
}

// Quantile returns an upper bound on the q-quantile probe distance
// (e.g. 0.99 for p99): the upper edge of the first bucket whose
// cumulative count reaches q of the total. Returns 0 for an empty
// histogram.
func (h Histogram) Quantile(q float64) int {
	total := h.Total()
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	if need > total {
		need = total
	}
	var cum uint64
	for b, v := range h {
		cum += v
		if cum >= need {
			if b == 0 {
				return 0
			}
			return 1<<b - 1 // upper edge of [2^(b-1), 2^b)
		}
	}
	return 1<<NumProbeBuckets - 1
}

// PhaseSpan is one entry of the phase timeline: a maximal interval
// during which one phase was continuously active on a PhaseGuard (or
// explicitly bracketed by a driver), with the number of guarded
// operations that ran inside it. StartNs/EndNs are nanoseconds since
// process start (process-local monotonic time, comparable within one
// timeline only).
type PhaseSpan struct {
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     uint64 `json:"ops"`
}

// Snapshot is the deterministic merged view of every sink. Field order
// and JSON encoding are stable; see the package comment for which
// fields are schedule-independent.
type Snapshot struct {
	// Enabled records whether the binary carries live instrumentation
	// (built with -tags obs); every other field is zero when false.
	Enabled bool

	// Counters holds the merged counter values, indexed by Counter.
	Counters [NumCounters]uint64

	// Probe-length histograms per operation class.
	InsertProbes Histogram
	FindProbes   Histogram
	DeleteProbes Histogram

	// MaxShardImbalancePm is the worst per-mille shard imbalance seen by
	// any sharded bulk kernel call: max-run-length * shards * 1000 /
	// total elements (1000 = perfectly balanced).
	MaxShardImbalancePm uint64

	// EpochLatency is the admit-to-complete latency histogram of epoch
	// scheduler ops, in microseconds (power-of-two buckets, like the
	// probe histograms). Wall-clock: never schedule-independent.
	EpochLatency Histogram

	// MaxEpochQueueDepth is the deepest admission queue observed by the
	// epoch scheduler; it must never exceed the configured queue limit
	// (the overload tests assert this against Server.Stats too).
	MaxEpochQueueDepth uint64

	// WorkerBlocks[i] is the number of loop blocks executed by pool
	// worker i (index 0 is the dispatching goroutine). Trailing zero
	// workers are trimmed.
	WorkerBlocks []uint64

	// Spans is the recorded phase timeline, oldest first; bounded (see
	// TimelineCap) with SpansDropped counting overflow.
	Spans        []PhaseSpan
	SpansDropped uint64
}

// Get returns the merged value of counter c.
func (s *Snapshot) Get(c Counter) uint64 { return s.Counters[c] }

// OpCounts is the schedule-independent subset of a Snapshot: for a
// fixed workload these totals are identical across seeds, worker counts
// and fault profiles (the detres obs oracle asserts this). Probe steps,
// CAS failures and chain depths are deliberately excluded — they
// measure the schedule.
type OpCounts struct {
	InsertOps uint64
	FindOps   uint64
	FindHits  uint64
	DeleteOps uint64
}

// Ops returns the schedule-independent operation counts.
func (s *Snapshot) Ops() OpCounts {
	return OpCounts{
		InsertOps: s.Counters[CtrInsertOps],
		FindOps:   s.Counters[CtrFindOps],
		FindHits:  s.Counters[CtrFindHits],
		DeleteOps: s.Counters[CtrDeleteOps],
	}
}

// MeanProbe returns the mean probe distance for the given op histogram
// class ("insert", "find", "delete"), computed from the exact step sums
// (not the histogram buckets).
func (s *Snapshot) MeanProbe(class string) float64 {
	var steps, ops uint64
	switch class {
	case "insert":
		steps, ops = s.Counters[CtrInsertProbeSteps], s.Counters[CtrInsertOps]
	case "find":
		steps, ops = s.Counters[CtrFindProbeSteps], s.Counters[CtrFindOps]
	case "delete":
		steps, ops = s.Counters[CtrDeleteProbeSteps], s.Counters[CtrDeleteOps]
	}
	if ops == 0 {
		return 0
	}
	return float64(steps) / float64(ops)
}

// CASRetryRate returns insert CAS failures per insert operation — the
// contention gauge Maier et al. use to explain throughput cliffs.
func (s *Snapshot) CASRetryRate() float64 {
	ops := s.Counters[CtrInsertOps]
	if ops == 0 {
		return 0
	}
	return float64(s.Counters[CtrInsertCASFailures]) / float64(ops)
}

// DisplacementRate returns insert displacements per insert operation.
func (s *Snapshot) DisplacementRate() float64 {
	ops := s.Counters[CtrInsertOps]
	if ops == 0 {
		return 0
	}
	return float64(s.Counters[CtrInsertDisplacements]) / float64(ops)
}

// ReplacementDepth returns the mean recursive hole-fill depth per
// delete operation.
func (s *Snapshot) ReplacementDepth() float64 {
	ops := s.Counters[CtrDeleteOps]
	if ops == 0 {
		return 0
	}
	return float64(s.Counters[CtrDeleteReplacements]) / float64(ops)
}

// CtrlWordsPerFind returns the mean ctrl words loaded per find
// operation on the compact table's SWAR probe path. Meaningful only
// when the measured section ran compact finds exclusively (find ops
// from other table kinds share the denominator).
func (s *Snapshot) CtrlWordsPerFind() float64 {
	ops := s.Counters[CtrFindOps]
	if ops == 0 {
		return 0
	}
	return float64(s.Counters[CtrFindCtrlWords]) / float64(ops)
}

// FPFalsePositiveRate returns fingerprint false positives per find
// operation: candidates whose 7-bit fingerprint matched but whose cell
// held a different key, costing one wasted cell load each.
func (s *Snapshot) FPFalsePositiveRate() float64 {
	ops := s.Counters[CtrFindOps]
	if ops == 0 {
		return 0
	}
	return float64(s.Counters[CtrFindFPFalse]) / float64(ops)
}

// MarshalJSON encodes the snapshot with named counters (stable keys,
// stable order via encoding/json's sorted map keys).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	counters := make(map[string]uint64, NumCounters)
	for c := 0; c < NumCounters; c++ {
		counters[counterNames[c]] = s.Counters[c]
	}
	return json.Marshal(struct {
		Enabled             bool              `json:"enabled"`
		Counters            map[string]uint64 `json:"counters"`
		InsertProbes        Histogram         `json:"insert_probe_hist"`
		FindProbes          Histogram         `json:"find_probe_hist"`
		DeleteProbes        Histogram         `json:"delete_probe_hist"`
		MeanInsertProbe     float64           `json:"mean_insert_probe"`
		P99InsertProbe      int               `json:"p99_insert_probe"`
		CASRetryRate        float64           `json:"cas_retry_rate"`
		MaxShardImbalancePm uint64            `json:"max_shard_imbalance_pm"`
		EpochLatency        Histogram         `json:"epoch_latency_us_hist"`
		P99EpochLatencyUs   int               `json:"p99_epoch_latency_us"`
		MaxEpochQueueDepth  uint64            `json:"max_epoch_queue_depth"`
		WorkerBlocks        []uint64          `json:"worker_blocks,omitempty"`
		Spans               []PhaseSpan       `json:"spans,omitempty"`
		SpansDropped        uint64            `json:"spans_dropped,omitempty"`
	}{
		Enabled:             s.Enabled,
		Counters:            counters,
		InsertProbes:        s.InsertProbes,
		FindProbes:          s.FindProbes,
		DeleteProbes:        s.DeleteProbes,
		MeanInsertProbe:     s.MeanProbe("insert"),
		P99InsertProbe:      s.InsertProbes.Quantile(0.99),
		CASRetryRate:        s.CASRetryRate(),
		MaxShardImbalancePm: s.MaxShardImbalancePm,
		EpochLatency:        s.EpochLatency,
		P99EpochLatencyUs:   s.EpochLatency.Quantile(0.99),
		MaxEpochQueueDepth:  s.MaxEpochQueueDepth,
		WorkerBlocks:        s.WorkerBlocks,
		Spans:               s.Spans,
		SpansDropped:        s.SpansDropped,
	})
}

// String renders a compact human-readable summary (the phload soak and
// phbench -stats output).
func (s *Snapshot) String() string {
	if !s.Enabled {
		return "obs: off (build with -tags obs)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "obs: insert ops=%d probes mean=%.2f p99=%d cas-retry=%.4f/op displaced=%.3f/op",
		s.Counters[CtrInsertOps], s.MeanProbe("insert"), s.InsertProbes.Quantile(0.99),
		s.CASRetryRate(), s.DisplacementRate())
	fmt.Fprintf(&b, "; find ops=%d probes mean=%.2f p99=%d hits=%d",
		s.Counters[CtrFindOps], s.MeanProbe("find"), s.FindProbes.Quantile(0.99), s.Counters[CtrFindHits])
	fmt.Fprintf(&b, "; delete ops=%d repl-depth=%.3f/op",
		s.Counters[CtrDeleteOps], s.ReplacementDepth())
	if w := s.Counters[CtrFindCtrlWords]; w > 0 {
		fmt.Fprintf(&b, "; compact ctrl-words=%.2f/find fp-false=%.4f/find",
			s.CtrlWordsPerFind(), s.FPFalsePositiveRate())
	}
	if g := s.Counters[CtrGrowEvents]; g > 0 {
		fmt.Fprintf(&b, "; grow events=%d moved=%d", g, s.Counters[CtrGrowCellsMoved])
	}
	if r := s.Counters[CtrShardBulkRuns]; r > 0 {
		fmt.Fprintf(&b, "; shard runs=%d elems=%d imbalance=%.2fx",
			r, s.Counters[CtrShardBulkElems], float64(s.MaxShardImbalancePm)/1000)
	}
	if e := s.Counters[CtrEpochFlushes]; e > 0 {
		fmt.Fprintf(&b, "; epochs=%d ops=%d splits=%d shed(ovl=%d ddl=%d) cancelled=%d full=%d p99lat=%dus maxq=%d",
			e, s.Counters[CtrEpochFlushOps], s.Counters[CtrEpochSplits],
			s.Counters[CtrEpochShedOverload], s.Counters[CtrEpochShedDeadline],
			s.Counters[CtrEpochCancelled], s.Counters[CtrEpochInsertFull],
			s.EpochLatency.Quantile(0.99), s.MaxEpochQueueDepth)
	}
	return b.String()
}
