//go:build obs

package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestStripedSinksMergeLikeSerial drives the *real* histogram sinks
// with one op stream, split across goroutines and stripes, and asserts
// TakeSnapshot merges to exactly the serial histograms — the sink-level
// version of the histogram merge property (stripe assignment must be
// invisible after merging).
func TestStripedSinksMergeLikeSerial(t *testing.T) {
	type op struct{ stripe, steps int }
	stream := make([]op, 5000)
	for i := range stream {
		stream[i] = op{stripe: i * 2654435761 % 977, steps: i % 37}
	}
	var wantHist Histogram
	for _, o := range stream {
		wantHist.Add(o.steps)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		Reset()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(stream); i += workers {
					RecordInsert(stream[i].stripe, stream[i].steps)
					RecordFind(stream[i].stripe, stream[i].steps)
					RecordDelete(stream[i].stripe, stream[i].steps)
				}
			}(w)
		}
		wg.Wait()
		s := TakeSnapshot()
		if s.InsertProbes != wantHist || s.FindProbes != wantHist || s.DeleteProbes != wantHist {
			t.Fatalf("workers=%d: histograms insert %v find %v delete %v, want %v",
				workers, s.InsertProbes, s.FindProbes, s.DeleteProbes, wantHist)
		}
	}
	Reset()
}

func TestPhaseSpansAndReset(t *testing.T) {
	Reset()
	sp := PhaseStart("insert")
	for i := 0; i < 5; i++ {
		sp.AddOp()
	}
	PhaseEnd(sp)
	sp = PhaseStart("read")
	sp.AddOp()
	PhaseEnd(sp)
	s := TakeSnapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(s.Spans), s.Spans)
	}
	if s.Spans[0].Phase != "insert" || s.Spans[0].Ops != 5 {
		t.Fatalf("span 0 = %+v", s.Spans[0])
	}
	if s.Spans[1].Phase != "read" || s.Spans[1].Ops != 1 {
		t.Fatalf("span 1 = %+v", s.Spans[1])
	}
	for _, span := range s.Spans {
		if span.EndNs < span.StartNs {
			t.Fatalf("span ends before it starts: %+v", span)
		}
	}
	if s.Spans[1].StartNs < s.Spans[0].StartNs {
		t.Fatal("timeline out of order")
	}
	// nil-span safety and reset.
	var nilSpan *ActiveSpan
	nilSpan.AddOp()
	PhaseEnd(nil)
	CoreInsert(0, 1, 1)
	Reset()
	if s = TakeSnapshot(); len(s.Spans) != 0 || s.InsertOps != 0 {
		t.Fatalf("Reset left state behind: %+v", s)
	}
}

func TestTimelineCap(t *testing.T) {
	Reset()
	defer Reset()
	for i := 0; i < TimelineCap+10; i++ {
		PhaseEnd(PhaseStart("read"))
	}
	s := TakeSnapshot()
	if len(s.Spans) != TimelineCap {
		t.Fatalf("got %d spans, want cap %d", len(s.Spans), TimelineCap)
	}
	if s.SpansDropped != 10 {
		t.Fatalf("dropped = %d, want 10", s.SpansDropped)
	}
}

func TestServeEndpoint(t *testing.T) {
	Reset()
	CoreInsert(0, 1, 3)
	RecordInsert(0, 3)
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback here: %v", err)
	}
	for _, path := range []string{"/debug/phasestats", "/debug/vars"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d err %v", path, resp.StatusCode, err)
		}
		if path == "/debug/phasestats" {
			var decoded Snapshot
			if err := json.Unmarshal(body, &decoded); err != nil {
				t.Fatalf("bad JSON from %s: %v\n%s", path, err, body)
			}
			if !decoded.Enabled || decoded.InsertOps != 1 || decoded.InsertProbes.Total() != 1 {
				t.Fatalf("unexpected snapshot: %s", body)
			}
		}
	}
}
