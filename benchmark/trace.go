package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps a traced run's spans in memory and writes them out when
// the run ends. Spans are recorded by the benchmark's own code
// around its calls into each layer's public functions; names are
// "<layer>:<call>" (bench, api, apps, core, parallel, epoch, wire). A
// nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, items int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Items: items})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent, items int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Items: items})
	t.mu.Unlock()
}

// call runs f, records it as a span and returns its duration. The span
// covers f alone, not the tracer's own bookkeeping.
func (t *tracer) call(name string, parent, items int, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.record(name, parent, items, t0, t1)
	return t1.Sub(t0)
}

// len reports the number of spans recorded.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// referenceSpan names the reference rounds recorded between blocks of
// the layer probes.
const referenceSpan = "bench:reference"

// nominalNsPerItem returns the median, over the closed spans named name,
// of duration per item scaled to nominal machine speed by the reference
// spans just before and after each (spans with no reference on both
// sides are left out), and how many spans that was.
func (t *tracer) nominalNsPerItem(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs, pending []float64
	last := 0.0
	for _, s := range t.spans {
		switch {
		case s.Name == referenceSpan:
			ms := float64(s.End-s.Start) / 1e6
			if last > 0 {
				for _, x := range pending {
					xs = append(xs, x*nominalScale(last, ms))
				}
			}
			pending, last = pending[:0], ms
		case s.Name == name && s.End >= 0 && s.Items > 0:
			pending = append(pending, float64(s.End-s.Start)/float64(s.Items))
		}
	}
	return median(xs), len(xs)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
