// Package detres implements deterministic reservations, the
// speculative-for framework of Blelloch, Fineman, Gibbons and Shun
// ("Internally deterministic parallel algorithms can be fast", PPoPP
// 2012) that the paper's Delaunay-refinement, spanning-forest and
// edge-contraction applications are built on.
//
// Iterates 0..n-1 carry priorities equal to their indices. Each round
// takes a prefix of the remaining iterates; every iterate in the prefix
// reserves (announcing its intent on shared state, typically with
// WriteMin keyed by its priority), then every iterate commits, which
// succeeds only if the iterate still holds its reservations. Failed
// iterates retry in later rounds. Because reservations are
// priority-ordered, the set of winners each round — and therefore the
// entire execution — is deterministic, independent of scheduling.
//
// Run is the one round loop. It owns the prefix, its top-up with
// fresh iterates and the pack of the survivors, and allocates its round
// buffers once per run. A Round body supplies the two passes;
// SpeculativeFor is the body for per-iterate Steps, and a body over a
// phase-concurrent table makes the passes the paper's phases: reserve
// is an insert phase, commit a find phase, release a delete phase.
package detres

import "phasehash/internal/parallel"

// Round is one body for Run: the two passes of a round. Both see the
// live iterates in priority order, in a slice whose capacity is the
// run's granularity (a body sizes its own buffers by it once), and
// done is all false on entry.
type Round interface {
	// Reserve runs over the round's prefix. It sets done[j] for every
	// iterate active[j] that has nothing to do; Run drops those.
	Reserve(active []int, done []bool)
	// Commit runs over the iterates Reserve kept, once every
	// reservation is in. It sets done[j] for every iterate that
	// committed; the others are retried next round, ahead of fresh
	// iterates.
	Commit(active []int, done []bool)
}

// Stats reports what a Run did.
type Stats struct {
	Rounds    int // reservation/commit rounds executed
	Committed int // iterates Commit marked done
	Dropped   int // iterates Reserve marked done
}

// Run runs iterates [start, end) to completion with the given round
// granularity (maximum prefix size per round; <= 0 chooses a default)
// and returns execution statistics.
func Run(r Round, start, end, granularity int) Stats {
	if granularity <= 0 {
		granularity = defaultGranularity(end - start)
	}
	d := newPrefix(granularity)
	var stats Stats
	for next := start; ; {
		// Top up the prefix with fresh iterates; survivors stay ahead.
		for len(d.active) < granularity && next < end {
			d.active = append(d.active, next)
			next++
		}
		if len(d.active) == 0 {
			return stats
		}
		stats.Rounds++
		p := len(d.active)
		r.Reserve(d.active, d.done[:p])
		d.pack()
		q := len(d.active)
		stats.Dropped += p - q
		r.Commit(d.active, d.done[:q])
		d.pack()
		stats.Committed += q - len(d.active)
	}
}

// prefix is Run's round state, allocated once per run: the live
// iterates in priority order, their done marks, the pack's spare
// buffer and the pack itself, so a round allocates nothing of its own.
type prefix struct {
	active, spare []int
	done          []bool
	packer        *parallel.Packer
}

func newPrefix(granularity int) *prefix {
	d := &prefix{
		active: make([]int, 0, granularity),
		spare:  make([]int, granularity),
		done:   make([]bool, granularity),
	}
	d.packer = parallel.NewPacker(d.countLive, d.emitLive)
	return d
}

// pack keeps the iterates not marked done, in priority order, and
// clears the marks: the spare buffer becomes the prefix.
func (d *prefix) pack() {
	total := d.packer.Pack(len(d.active))
	d.active, d.spare = d.spare[:total], d.active[:cap(d.active)]
}

// countLive counts the iterates of [lo, hi) not marked done.
func (d *prefix) countLive(lo, hi int) int {
	c := 0
	for _, done := range d.done[lo:hi] {
		if !done {
			c++
		}
	}
	return c
}

// emitLive copies the iterates of [lo, hi) not marked done into the
// spare buffer from offset o and clears the marks.
func (d *prefix) emitLive(lo, hi, o int) {
	for j := lo; j < hi; j++ {
		if !d.done[j] {
			d.spare[o] = d.active[j]
			o++
		}
		d.done[j] = false
	}
}

func defaultGranularity(n int) int {
	g := n / 50
	if g < 256 {
		g = 256
	}
	return g
}

// Step defines one speculative iterate.
type Step interface {
	// Reserve announces iterate i's claims. Returning false drops the
	// iterate without a commit attempt (it discovered it has nothing to
	// do).
	Reserve(i int) bool
	// Commit attempts iterate i's action; it must succeed only if i still
	// holds every claim it reserved. Returning false requeues i.
	Commit(i int) bool
}

// SpeculativeFor runs step's iterates [start, end) on Run, calling
// Reserve and then Commit per iterate at the automatic grain;
// granularity is Run's.
func SpeculativeFor(step Step, start, end, granularity int) Stats {
	s := &stepRound{}
	s.reserve = func(lo, hi int) {
		for j := lo; j < hi; j++ {
			s.done[j] = !step.Reserve(s.active[j])
		}
	}
	s.commit = func(lo, hi int) {
		for j := lo; j < hi; j++ {
			s.done[j] = step.Commit(s.active[j])
		}
	}
	return Run(s, start, end, granularity)
}

// stepRound is SpeculativeFor's Round. Its block bodies are built once
// per run and read the round's slices from the struct.
type stepRound struct {
	active          []int
	done            []bool
	reserve, commit func(lo, hi int)
}

func (s *stepRound) Reserve(active []int, done []bool) {
	s.active, s.done = active, done
	parallel.ForBlocked(len(active), 0, s.reserve)
}

func (s *stepRound) Commit(active []int, done []bool) {
	s.active, s.done = active, done
	parallel.ForBlocked(len(active), 0, s.commit)
}
