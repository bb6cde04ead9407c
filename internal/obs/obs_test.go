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

func TestSnapshotJSONAndString(t *testing.T) {
	var s Snapshot
	s.Enabled = Enabled
	s.InsertOps = 10
	s.InsertProbeSteps = 25
	s.InsertProbes.Add(5)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"core":{"InsertOps":10,"InsertProbeSteps":25`, `"insert_probe_hist":[0,0,0,1,`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("snapshot JSON missing %s: %s", key, data)
		}
	}
	if mean := s.MeanProbe("insert"); mean != 2.5 {
		t.Errorf("MeanProbe = %v, want 2.5", mean)
	}
	str := s.String()
	if !strings.Contains(str, "insert ops=10 mean-probe=2.500") {
		t.Errorf("String() = %q", str)
	}
	if Enabled != strings.Contains(str, "p99 probes insert=7") {
		t.Errorf("String() = %q: the p99 part must appear exactly in obs builds", str)
	}
}

// TestDisabledSnapshotIsZero pins the untagged contract: the obs part of
// TakeSnapshot (histograms, timeline) stays zero and Enabled false, the
// no-op hooks stay no-ops, and the snapshot still carries the counter
// core.
func TestDisabledSnapshotIsZero(t *testing.T) {
	if Enabled {
		t.Skip("obs build: live sinks tested in obs_on_test.go")
	}
	Reset()
	defer Reset()
	RecordInsert(1, 2)
	RecordFind(1, 2)
	RecordDelete(1, 2)
	RecordEpochLatency(3)
	sp := PhaseStart("insert")
	sp.AddOp()
	PhaseEnd(sp)
	CoreInsert(1, 1, 2)
	s := TakeSnapshot()
	if s.Enabled {
		t.Fatal("untagged snapshot claims Enabled")
	}
	var zero Histogram
	if s.InsertProbes != zero || s.FindProbes != zero || s.DeleteProbes != zero ||
		s.EpochLatency != zero || len(s.Spans) != 0 || s.SpansDropped != 0 {
		t.Fatalf("untagged snapshot has obs data: %+v", s)
	}
	if want := uint64(1); CoreEnabled && s.InsertOps != want {
		t.Fatalf("untagged snapshot insert ops %d, want the core's %d", s.InsertOps, want)
	}
	if _, err := Serve("127.0.0.1:0"); err != ErrDisabled {
		t.Fatalf("Serve error = %v, want ErrDisabled", err)
	}
}
