package obs

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct{ d, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 13, 14}, {1 << 14, 15}, {1 << 20, NumProbeBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.d); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's lower edge must map back into that bucket.
	for b := 0; b < NumProbeBuckets; b++ {
		if got := BucketOf(BucketLo(b)); got != b {
			t.Errorf("BucketOf(BucketLo(%d)=%d) = %d", b, BucketLo(b), got)
		}
	}
}

// TestHistogramMergePropertyAcrossWorkers is the merge property the
// per-worker (and per-stripe) sink design rests on: partition one op
// stream across k histograms any way at all, merge them, and the result
// is the serial histogram of the whole stream. Exercised across several
// worker counts and partitions.
func TestHistogramMergePropertyAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	stream := make([]int, 10000)
	for i := range stream {
		// Mix short and heavy-tailed probe distances.
		if rng.Intn(4) == 0 {
			stream[i] = rng.Intn(1 << 12)
		} else {
			stream[i] = rng.Intn(6)
		}
	}
	var serial Histogram
	for _, d := range stream {
		serial.Add(d)
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		parts := make([]Histogram, workers)
		// Striped partition (the shape replayPhases uses).
		for i, d := range stream {
			parts[i%workers].Add(d)
		}
		var merged Histogram
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged != serial {
			t.Fatalf("workers=%d: merged %v != serial %v", workers, merged, serial)
		}
		// Random partition too: merge must not care how ops were split.
		for i := range parts {
			parts[i] = Histogram{}
		}
		for _, d := range stream {
			parts[rng.Intn(workers)].Add(d)
		}
		merged = Histogram{}
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged != serial {
			t.Fatalf("workers=%d (random split): merged %v != serial %v", workers, merged, serial)
		}
	}
	if serial.Total() != uint64(len(stream)) {
		t.Fatalf("Total = %d, want %d", serial.Total(), len(stream))
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	// 99 ops at distance 0, one at distance 5 ([4,8) → upper edge 7).
	for i := 0; i < 99; i++ {
		h.Add(0)
	}
	h.Add(5)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("p50 = %d, want 0", got)
	}
	if got := h.Quantile(0.999); got != 7 {
		t.Fatalf("p99.9 = %d, want 7 (upper edge of [4,8))", got)
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumCounters; c++ {
		name := Counter(c).String()
		if name == "" || name == "unknown-counter" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
}

func TestSnapshotJSONAndString(t *testing.T) {
	var s Snapshot
	s.Enabled = Enabled
	s.Counters[CtrInsertOps] = 10
	s.Counters[CtrInsertProbeSteps] = 25
	s.Counters[CtrInsertCASFailures] = 2
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"insert-ops":10`, `"cas_retry_rate":0.2`, `"grow-rehash-cells":0`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("snapshot JSON missing %s: %s", key, data)
		}
	}
	if mean := s.MeanProbe("insert"); mean != 2.5 {
		t.Errorf("MeanProbe = %v, want 2.5", mean)
	}
	str := s.String()
	if Enabled && !strings.Contains(str, "insert ops=10") {
		t.Errorf("String() = %q", str)
	}
	if !Enabled && !strings.Contains(str, "off") {
		t.Errorf("String() without tag = %q, want the off notice", str)
	}
}

// TestDisabledSnapshotIsZero pins the untagged contract: TakeSnapshot
// reports Enabled == false and all-zero counters, and the no-op hooks
// stay no-ops.
func TestDisabledSnapshotIsZero(t *testing.T) {
	if Enabled {
		t.Skip("obs build: live sinks tested in obs_on_test.go")
	}
	RecordInsert(1, 2, 3, 4, 5)
	RecordFind(1, 2, true)
	RecordDelete(1, 2, 3, 4)
	sp := PhaseStart("insert")
	sp.AddOp()
	PhaseEnd(sp)
	s := TakeSnapshot()
	if s.Enabled {
		t.Fatal("untagged snapshot claims Enabled")
	}
	if got := s.Ops(); got != (OpCounts{}) {
		t.Fatalf("untagged op counts %+v, want zero", got)
	}
	if _, err := Serve("127.0.0.1:0"); err != ErrDisabled {
		t.Fatalf("Serve error = %v, want ErrDisabled", err)
	}
}
