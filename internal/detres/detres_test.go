package detres

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"phasehash/internal/atomicx"
	"phasehash/internal/parallel"
)

// slotStep has n iterates competing for m slots (iterate i wants slot
// i%m). Each round an iterate WriteMin-reserves its slot; the holder of
// the minimum priority takes the slot (appending itself to the slot's
// history and resetting the reservation), everyone else retries. The
// deterministic-reservations guarantee is that each slot's history comes
// out in strictly increasing priority order, on every schedule — the same
// protocol (reserve / check-and-reset) the spanning-forest application
// uses.
type slotStep struct {
	m        int
	reserved []uint64
	mu       []sync.Mutex
	history  [][]int
}

func newSlotStep(m int) *slotStep {
	s := &slotStep{
		m:        m,
		reserved: make([]uint64, m),
		mu:       make([]sync.Mutex, m),
		history:  make([][]int, m),
	}
	for i := range s.reserved {
		s.reserved[i] = ^uint64(0)
	}
	return s
}

func (s *slotStep) Reserve(i int) bool {
	atomicx.WriteMin(&s.reserved[i%s.m], uint64(i))
	return true
}

func (s *slotStep) Commit(i int) bool {
	slot := i % s.m
	// check-and-reset: only the priority minimum proceeds.
	if !atomic.CompareAndSwapUint64(&s.reserved[slot], uint64(i), ^uint64(0)) {
		return false
	}
	s.mu[slot].Lock()
	s.history[slot] = append(s.history[slot], i)
	s.mu[slot].Unlock()
	return true
}

func TestSpeculativeForSlotOrderDeterministic(t *testing.T) {
	n, m := 5000, 37
	for trial := 0; trial < 5; trial++ {
		s := newSlotStep(m)
		stats := SpeculativeFor(s, 0, n, 0)
		if stats.Committed != n {
			t.Fatalf("Committed = %d, want %d", stats.Committed, n)
		}
		total := 0
		for slot, h := range s.history {
			total += len(h)
			for j := 1; j < len(h); j++ {
				if h[j] <= h[j-1] {
					t.Fatalf("trial %d: slot %d history out of priority order: %v", trial, slot, h[:j+1])
				}
			}
		}
		if total != n {
			t.Fatalf("history holds %d entries, want %d", total, n)
		}
	}
}

// trivialStep commits everything first try.
type trivialStep struct{ done []atomic.Int32 }

func (s *trivialStep) Reserve(int) bool { return true }
func (s *trivialStep) Commit(i int) bool {
	s.done[i].Add(1)
	return true
}

func TestSpeculativeForRunsEachIterateOnce(t *testing.T) {
	n := 10000
	s := &trivialStep{done: make([]atomic.Int32, n)}
	stats := SpeculativeFor(s, 0, n, 128)
	if stats.Committed != n {
		t.Fatalf("Committed = %d, want %d", stats.Committed, n)
	}
	for i := range s.done {
		if s.done[i].Load() != 1 {
			t.Fatalf("iterate %d committed %d times", i, s.done[i].Load())
		}
	}
	if stats.Rounds < n/128 {
		t.Errorf("Rounds = %d, expected at least %d with granularity 128", stats.Rounds, n/128)
	}
}

// flakyStep fails each iterate's first commit attempt, exercising retry.
type flakyStep struct {
	attempts []atomic.Int32
}

func (s *flakyStep) Reserve(int) bool { return true }
func (s *flakyStep) Commit(i int) bool {
	return s.attempts[i].Add(1) > 1
}

func TestSpeculativeForRetries(t *testing.T) {
	n := 1000
	s := &flakyStep{attempts: make([]atomic.Int32, n)}
	stats := SpeculativeFor(s, 0, n, 100)
	if stats.Committed != n {
		t.Fatalf("Committed = %d, want %d", stats.Committed, n)
	}
	for i := range s.attempts {
		if s.attempts[i].Load() != 2 {
			t.Fatalf("iterate %d took %d attempts, want 2", i, s.attempts[i].Load())
		}
	}
}

// dropStep drops odd iterates at reserve time.
type dropStep struct{ committed atomic.Int64 }

func (s *dropStep) Reserve(i int) bool { return i%2 == 0 }
func (s *dropStep) Commit(i int) bool {
	s.committed.Add(1)
	return true
}

func TestSpeculativeForDrops(t *testing.T) {
	n := 1000
	s := &dropStep{}
	stats := SpeculativeFor(s, 0, n, 64)
	if stats.Dropped != n/2 || stats.Committed != n/2 {
		t.Fatalf("Dropped=%d Committed=%d, want %d each", stats.Dropped, stats.Committed, n/2)
	}
	if s.committed.Load() != int64(n/2) {
		t.Fatalf("step saw %d commits", s.committed.Load())
	}
}

// TestRunAllocsIndependentOfRounds pins Run's round buffers to
// one allocation per run: a run of 100 rounds allocates exactly what a
// run of one round does. Prefixes of 64 iterates keep every loop on the
// calling goroutine (below parallel.MinGrain), so the parallel runtime's
// per-dispatch job, which is not Run's, stays out of the count.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	const g = 64
	s := &dropStep{}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() { SpeculativeFor(s, 0, g*rounds, g) })
	}
	one, many := allocs(1), allocs(100)
	if many != one {
		t.Fatalf("SpeculativeFor allocates %.0f times over 1 round, %.0f over 100", one, many)
	}
}

// TestRunPacksSurvivorsInOrder checks Run itself: over prefixes
// larger than a pack block, survivors keep priority order ahead of
// fresh iterates, and every iterate is seen by Commit until it commits.
// It runs at one worker too, where a parallel loop is one block.
func TestRunPacksSurvivorsInOrder(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	const n, g = 20000, 3000
	for _, workers := range []int{1, 2, 4} {
		parallel.SetNumWorkers(workers)
		r := &orderRound{attempts: make([]int, n)}
		stats := Run(r, 0, n, g)
		if stats.Committed+stats.Dropped != n {
			t.Fatalf("%d workers: Committed %d + Dropped %d != %d", workers, stats.Committed, stats.Dropped, n)
		}
		if r.badOrder != "" {
			t.Fatalf("%d workers: %s", workers, r.badOrder)
		}
		for i, a := range r.attempts {
			want := 0
			if i%3 != 0 {
				want = 1 + i%4
			}
			if a != want {
				t.Fatalf("%d workers: iterate %d reached Commit %d times, want %d", workers, i, a, want)
			}
		}
	}
}

// orderRound drops every third iterate and commits iterate i on its
// (1+i%4)-th commit attempt. Its passes are sequential, so it can
// record what it sees.
type orderRound struct {
	attempts []int
	badOrder string
}

func (r *orderRound) Reserve(active []int, done []bool) {
	r.check(active)
	for j, i := range active {
		done[j] = i%3 == 0
	}
}

func (r *orderRound) Commit(active []int, done []bool) {
	r.check(active)
	for j, i := range active {
		r.attempts[i]++
		done[j] = r.attempts[i] == 1+i%4
	}
}

func (r *orderRound) check(active []int) {
	for j := 1; j < len(active); j++ {
		if active[j] <= active[j-1] && r.badOrder == "" {
			r.badOrder = fmt.Sprintf("prefix out of priority order at %d: %d after %d", j, active[j], active[j-1])
		}
	}
}
