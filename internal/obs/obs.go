// Package obs is the runtime telemetry substrate (phasestats) for the
// phase-concurrent tables and the parallel runtime. It has one counter
// store and one optional layer on top of it.
//
// The counter store is the always-on counter core (corestats.go,
// core_on.go): striped operation, hit and probe-step totals fed by
// every table layout, GrowTable resize counts, the sharded bulk
// partition totals and imbalance gauge, and the pool's dispatch and
// worker-participation counters. Default builds carry it, so every
// binary has schedule-independent op counts to report; -tags nostats
// compiles it out for the A/B overhead gate (`make tune-overhead`),
// and `make tune-sizecheck` asserts with `go tool nm` that no core sink
// survives that build. The Core* hooks batch per block on the bulk
// paths and publish once per op on the per-element API. Epoch
// scheduler counts live in epoch.Stats, not here.
//
// `-tags obs` adds what counting cannot show: power-of-two probe-length
// histograms per operation class, the epoch admit-to-complete latency
// histogram, the phase timeline (spans that double as runtime/trace
// tasks) and the live debug endpoint (Serve). Without the tag every
// Record* hook is a no-op behind the constant Enabled == false; call
// sites are written `if obs.Enabled { obs.RecordInsert(...) }`, so the
// compiler deletes them, and `make obs-sizecheck` asserts that no
// Record* symbol survives linking an untagged binary. An obs build
// always carries the core (its Snapshot reads its counts from it), even
// under -tags nostats.
//
// The probe loops themselves carry no telemetry: each returns the cells
// it walked, and its caller publishes — the per-element API once per op
// through PublishInsert/PublishFind/PublishDelete, the bulk kernels once
// per block into the core and per element into the histograms.
//
// Sink design: increments must not contend, but Go offers no cheap
// goroutine-local storage. The table hooks pick a stripe from the
// operation's own probe origin (different elements hash to different
// stripes), the pool hooks from the worker index; merging is pure
// addition, so it is oblivious to which stripe got what, and
// schedule-independent quantities (operation and hit counts) merge to
// schedule-independent totals, which the detres op-count oracle
// asserts. Probe steps measure the schedule wherever workers share
// cells; timings and spans are wall-clock and never deterministic.
package obs

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// ErrDisabled is returned by Serve when the binary was built without
// the obs tag.
var ErrDisabled = errors.New("obs: built without -tags obs")

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

// Snapshot is the counter core plus the obs-tag histograms and
// timeline, merged at one point in time. Ops and MeanProbe are the
// core's; without the tag every field but the core is zero.
type Snapshot struct {
	// Enabled records whether the binary carries the histograms and the
	// timeline (built with -tags obs).
	Enabled bool `json:"enabled"`

	CoreStats `json:"core"`

	// Probe-length histograms per operation class, one entry per op.
	InsertProbes Histogram `json:"insert_probe_hist"`
	FindProbes   Histogram `json:"find_probe_hist"`
	DeleteProbes Histogram `json:"delete_probe_hist"`

	// EpochLatency is the admit-to-complete latency histogram of epoch
	// scheduler ops, in microseconds (power-of-two buckets, like the
	// probe histograms). Wall-clock: never schedule-independent.
	EpochLatency Histogram `json:"epoch_latency_us_hist"`

	// Spans is the recorded phase timeline, oldest first; bounded (see
	// TimelineCap) with SpansDropped counting overflow.
	Spans        []PhaseSpan `json:"spans,omitempty"`
	SpansDropped uint64      `json:"spans_dropped,omitempty"`
}

// TakeSnapshot merges the counter core and the obs-tag sinks. Merging
// is pure addition, so the result does not depend on which stripe (or
// worker) recorded what. Take snapshots at quiescence; a snapshot raced
// with live operations is still safe, just torn across fields.
func TakeSnapshot() Snapshot {
	s := Snapshot{Enabled: Enabled, CoreStats: CoreSnapshot()}
	takeHistograms(&s)
	return s
}

// Reset zeroes the counter core, the histograms and the timeline. Call
// it between measured sections (phbench resets before each cell so one
// distribution's numbers don't bleed into the next).
func Reset() {
	CoreReset()
	resetHistograms()
}

// String renders a compact human-readable summary: the core's line,
// then the probe-length p99s and the epoch latency p99 when the
// histograms are live.
func (s Snapshot) String() string {
	var b strings.Builder
	b.WriteString(s.CoreStats.String())
	if !s.Enabled {
		return b.String()
	}
	fmt.Fprintf(&b, "; p99 probes insert=%d find=%d delete=%d",
		s.InsertProbes.Quantile(0.99), s.FindProbes.Quantile(0.99), s.DeleteProbes.Quantile(0.99))
	if s.EpochLatency.Total() > 0 {
		fmt.Fprintf(&b, "; epoch p99 latency=%dus", s.EpochLatency.Quantile(0.99))
	}
	return b.String()
}

// PublishInsert publishes one completed insert of the given probe
// length: to the counter core and, in obs builds, to the insert
// histogram. The per-element table APIs call it once per op, with the
// op's home cell as the stripe; the bulk kernels batch into the core
// per block instead.
func PublishInsert(stripe, steps int) {
	if CoreEnabled {
		CoreInsert(stripe, 1, uint64(steps))
	}
	if Enabled {
		RecordInsert(stripe, steps)
	}
}

// PublishFind is PublishInsert for one completed find; hit reports
// whether it located its key.
func PublishFind(stripe, steps int, hit bool) {
	if CoreEnabled {
		var hits uint64
		if hit {
			hits = 1
		}
		CoreFind(stripe, 1, uint64(steps), hits)
	}
	if Enabled {
		RecordFind(stripe, steps)
	}
}

// PublishDelete is PublishInsert for one completed delete; steps is its
// victim-scan length.
func PublishDelete(stripe, steps int) {
	if CoreEnabled {
		CoreDelete(stripe, 1, uint64(steps))
	}
	if Enabled {
		RecordDelete(stripe, steps)
	}
}
