//go:build obs

package core

import (
	"bytes"
	"runtime/trace"
	"testing"

	"phasehash/internal/obs"
)

// TestObsHistogramsMatchCoreCounts drives real phases on every layout,
// per element and in bulk, and checks each probe-length histogram holds
// exactly one entry per op the counter core counted: the histograms are
// recorded at the same points that publish to the core.
func TestObsHistogramsMatchCoreCounts(t *testing.T) {
	const n = 1 << 12
	ins, finds, dels := telemetryScript(n)
	check := func(name string, run func()) {
		obs.Reset()
		run()
		s := obs.TakeSnapshot()
		if s.InsertOps != uint64(len(ins)) || s.FindOps != uint64(len(finds)) || s.DeleteOps != uint64(len(dels)) {
			t.Fatalf("%s: core ops %+v, want %d/%d/%d", name, s.Ops(), len(ins), len(finds), len(dels))
		}
		if s.InsertProbes.Total() != s.InsertOps || s.FindProbes.Total() != s.FindOps || s.DeleteProbes.Total() != s.DeleteOps {
			t.Fatalf("%s: histogram totals %d/%d/%d, core ops %+v", name,
				s.InsertProbes.Total(), s.FindProbes.Total(), s.DeleteProbes.Total(), s.Ops())
		}
	}
	defer obs.Reset()
	for name, mk := range map[string]func() wordLayout{
		"word":    func() wordLayout { return NewWordTable[SetOps](4 * n) },
		"compact": func() wordLayout { return NewCompactTable[SetOps](4 * n) },
		"sharded": func() wordLayout { return NewShardedTable[SetOps](4*n, 8) },
	} {
		check(name+"/per-element", func() {
			tb := mk()
			for _, k := range ins {
				tb.Insert(k)
			}
			for _, k := range finds {
				tb.Find(k)
			}
			for _, k := range dels {
				tb.Delete(k)
			}
		})
		check(name+"/bulk", func() {
			tb := mk()
			tb.InsertAll(ins)
			tb.FindAll(finds, nil)
			tb.DeleteAll(dels)
		})
	}
	recs := func(keys []uint64) []*rec {
		out := make([]*rec, len(keys))
		for i, k := range keys {
			out[i] = &rec{key: k}
		}
		return out
	}
	check("ptr/bulk", func() {
		tb := NewPtrTable[rec, recOps](4 * n)
		tb.InsertAll(recs(ins))
		tb.FindAll(recs(finds), nil)
		tb.DeleteAll(recs(dels))
	})
}

// TestPhaseGuardEmitsSpans checks the guard's idle→phase claim and
// last-out exit bracket a timeline span carrying the op count.
func TestPhaseGuardEmitsSpans(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	var g PhaseGuard
	for i := 0; i < 3; i++ {
		if err := g.Enter(PhaseInsert); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		g.Exit(PhaseInsert)
	}
	if err := g.Enter(PhaseRead); err != nil {
		t.Fatal(err)
	}
	g.Exit(PhaseRead)
	s := obs.TakeSnapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(s.Spans), s.Spans)
	}
	if s.Spans[0].Phase != "insert" || s.Spans[0].Ops != 3 {
		t.Fatalf("insert span = %+v", s.Spans[0])
	}
	if s.Spans[1].Phase != "read" || s.Spans[1].Ops != 1 {
		t.Fatalf("read span = %+v", s.Spans[1])
	}
}

// TestPhaseSpansAppearInTrace captures a runtime/trace and asserts the
// guard's spans show up as user tasks named "phase:<name>" — the
// acceptance criterion for `go tool trace` visibility. Task names land
// in the trace's string table, so a substring scan of the raw capture
// is enough without a trace parser.
func TestPhaseSpansAppearInTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("tracing unavailable: %v", err)
	}
	var g PhaseGuard
	if err := g.Enter(PhaseDelete); err != nil {
		t.Fatal(err)
	}
	g.Exit(PhaseDelete)
	trace.Stop()
	if !bytes.Contains(buf.Bytes(), []byte("phase:delete")) {
		t.Fatalf("trace capture (%d bytes) does not contain the phase:delete task name", buf.Len())
	}
}
