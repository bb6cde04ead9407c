package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The shared machine this benchmark runs on changes speed by 10-30% over
// minutes, for every workload at once (README.md, "Noise"), and no
// statistic within a run removes that. So the library and application
// workloads time a reference between every two repetitions: a fixed
// number of random reads over a 128 MB array owned by the benchmark, on
// every Go processor. No repository code runs in it, so its time moves
// only with the machine. Their throughput and latency are reported at
// nominal machine speed: each repetition's time is scaled by
// refNominalMs over the mean of the reference times taken just before
// and just after it. Raw values are in the full report.

// refNominalMs is a round figure near the reference's time on the
// machine whose numbers README.md records (17-23 ms on an Intel Xeon
// with 2 vCPUs); it only sets the scale of the reported numbers.
const refNominalMs = 25.0

type reference struct {
	buf  []uint64
	sink atomic.Uint64
}

func newReference() *reference {
	r := &reference{buf: make([]uint64, 1<<24)}
	for i := range r.buf {
		r.buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return r
}

// run times one round of the reference, in ms.
func (r *reference) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			m := uint64(len(r.buf) - 1)
			var s uint64
			for i := 0; i < 1_500_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s += r.buf[x&m]
			}
			r.sink.Add(s)
		}(uint64(w)*2 + 1)
	}
	wg.Wait()
	return time.Since(t0).Seconds() * 1e3
}

// reference returns the run's reference, built on first use.
func (p *pass) reference() *reference {
	if p.ref == nil {
		p.ref = newReference()
	}
	return p.ref
}

// referenceSpan runs one reference round inside a span, between blocks
// of the layer probes (see tracer.nominalNsPerItem).
func (p *pass) referenceSpan() {
	p.tr.call(referenceSpan, 0, 0, func() { p.reference().run() })
}

// nominalScale is the factor that takes a time measured between two
// reference rounds of before and after ms to nominal machine speed.
func nominalScale(before, after float64) float64 { return refNominalMs * 2 / (before + after) }

// bracketed holds a run's repetition times (ms) with the reference
// times around them: ref[i] is taken before repetition i, ref[i+1]
// after it.
type bracketed struct {
	r         *reference
	ref, reps []float64
}

// start takes the reference before the next repetition, unless the
// previous repetition's closing reference already stands there.
func (b *bracketed) start() {
	if len(b.ref) == len(b.reps) {
		b.ref = append(b.ref, b.r.run())
	}
}

// done records a repetition's time and takes the reference after it.
func (b *bracketed) done(ms float64) {
	b.reps = append(b.reps, ms)
	b.ref = append(b.ref, b.r.run())
}

// nominal returns each repetition's time at nominal machine speed.
func (b *bracketed) nominal() []float64 {
	xs := make([]float64, len(b.reps))
	for i, ms := range b.reps {
		xs[i] = ms * nominalScale(b.ref[i], b.ref[i+1])
	}
	return xs
}
