//go:build obs

package core

import (
	"bytes"
	"runtime/trace"
	"testing"

	"phasehash/internal/obs"
)

// TestObsCountersFromTableOps drives real WordTable phases and checks
// the recorded counters are consistent: one op per call, histogram
// totals match op counts, probe-step sums bound the work, CAS attempts
// cover at least the successful claims.
func TestObsCountersFromTableOps(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	const n = 1 << 12
	tb := NewWordTable[SetOps](4 * n)
	for i := uint64(1); i <= n; i++ {
		tb.Insert(i * 2654435761)
	}
	s := obs.TakeSnapshot()
	if got := s.Get(obs.CtrInsertOps); got != n {
		t.Fatalf("insert ops %d, want %d", got, n)
	}
	if s.InsertProbes.Total() != n {
		t.Fatalf("insert histogram total %d, want %d", s.InsertProbes.Total(), n)
	}
	if got := s.Get(obs.CtrInsertCASAttempts); got < n {
		t.Fatalf("CAS attempts %d < %d inserts (every claim is a CAS)", got, n)
	}

	obs.Reset()
	hits := 0
	for i := uint64(1); i <= n; i++ {
		if tb.Contains(i * 2654435761) {
			hits++
		}
		tb.Contains(i) // mostly misses
	}
	s = obs.TakeSnapshot()
	if got := s.Get(obs.CtrFindOps); got != 2*n {
		t.Fatalf("find ops %d, want %d", got, 2*n)
	}
	if got := s.Get(obs.CtrFindHits); got != uint64(hits) {
		t.Fatalf("find hits %d, want %d", got, hits)
	}
	if s.FindProbes.Total() != 2*n {
		t.Fatalf("find histogram total %d, want %d", s.FindProbes.Total(), 2*n)
	}

	obs.Reset()
	for i := uint64(1); i <= n; i++ {
		tb.Delete(i * 2654435761)
	}
	s = obs.TakeSnapshot()
	if got := s.Get(obs.CtrDeleteOps); got != n {
		t.Fatalf("delete ops %d, want %d", got, n)
	}
	if tb.Count() != 0 {
		t.Fatalf("table not empty after deletes")
	}
}

// TestObsShardedBulkFeedsSameCounters checks sharded bulk calls hit the
// same counters as the flat kernels they run, so sharded and flat runs
// are comparable, and that one owner per shard run means no insert CAS
// ever fails.
func TestObsShardedBulkFeedsSameCounters(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	const n = 1 << 10
	tb := NewShardedTable[SetOps](4*n, 8)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2654435761
	}
	tb.InsertAll(keys)
	s := obs.TakeSnapshot()
	if got := s.Get(obs.CtrInsertOps); got != n {
		t.Fatalf("insert ops %d, want %d", got, n)
	}
	if got := s.Get(obs.CtrInsertCASFailures); got != 0 {
		t.Fatalf("sharded bulk insert recorded %d CAS failures, want 0", got)
	}
	if got := s.Get(obs.CtrShardBulkCalls); got != 1 {
		t.Fatalf("shard bulk calls %d, want 1", got)
	}
	if got := s.Get(obs.CtrShardBulkElems); got != n {
		t.Fatalf("shard bulk elems %d, want %d", got, n)
	}
	if s.MaxShardImbalancePm < 1000 {
		t.Fatalf("imbalance gauge %d pm < 1000 (max run is never below mean)", s.MaxShardImbalancePm)
	}
}

// TestObsGrowCounters checks resize telemetry: growing a table from
// minimum size records grow events and rehashed cells, and the rehash
// re-inserts never count as insert ops.
func TestObsGrowCounters(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	const n = 1 << 12
	g := NewGrowTable[SetOps](64)
	for i := uint64(1); i <= n; i++ {
		g.Insert(i * 2654435761)
	}
	s := obs.TakeSnapshot()
	if got := s.Get(obs.CtrGrowEvents); got == 0 {
		t.Fatal("no grow events recorded")
	}
	if got := s.Get(obs.CtrGrowCellsMoved); got == 0 {
		t.Fatal("no rehashed cells recorded")
	}
	if got := s.Get(obs.CtrInsertOps); got != n {
		t.Fatalf("insert ops %d, want %d (rehash traffic leaked into the insert counters)", got, n)
	}
	if g.Count() != n {
		t.Fatalf("count %d, want %d", g.Count(), n)
	}
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
