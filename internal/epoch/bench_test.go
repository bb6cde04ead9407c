package epoch

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"
)

// BenchmarkEpochServerMixed drives the server with the phload op mix
// (50% insert / 25% find / 25% delete) in a windowed open loop and
// reports the serving-path metrics: admit-to-complete latency
// quantiles (p50admit-us, p99admit-us) and the shed fraction of offered
// ops (shed/op). The end-to-end serving numbers live in the benchmark
// module's serve-loopback workload.
func BenchmarkEpochServerMixed(b *testing.B) {
	s := NewServer(Config{
		Size:          1 << 16,
		MaxBatch:      1 << 10,
		QueueLimit:    1 << 12,
		FlushInterval: 100 * time.Microsecond,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			b.Fatalf("Close: %v", err)
		}
	}()

	type inflight struct {
		fut *Future
		t0  time.Time
	}
	latencies := make([]time.Duration, 0, b.N)
	pend := make([]inflight, 0, 1<<12)
	// Futures of one epoch resolve together and pend is bounded by the
	// queue limit, so reaping in admission order adds microseconds of
	// skew at most.
	reap := func() {
		for _, p := range pend {
			<-p.fut.Done()
			latencies = append(latencies, time.Since(p.t0))
		}
		pend = pend[:0]
	}
	shed := 0

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := OpInsert
		switch i & 3 {
		case 1:
			op = OpFind
		case 3:
			op = OpDelete
		}
		key := uint64(i&0xffff) + 1
		t0 := time.Now()
		fut, err := s.Submit(context.Background(), op, key)
		switch {
		case err == nil:
			pend = append(pend, inflight{fut, t0})
			if len(pend) == cap(pend) {
				reap()
			}
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			b.Fatalf("Submit: %v", err)
		}
	}
	s.Flush()
	reap()
	b.StopTimer()

	if len(latencies) == 0 {
		b.Fatal("no ops admitted")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	b.ReportMetric(float64(p50.Nanoseconds())/1e3, "p50admit-us")
	b.ReportMetric(float64(p99.Nanoseconds())/1e3, "p99admit-us")
	b.ReportMetric(float64(shed)/float64(b.N), "shed/op")
}
