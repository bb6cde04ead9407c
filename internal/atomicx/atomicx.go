// Package atomicx provides the small set of atomic primitives the paper's
// algorithms are written in terms of: compare-and-swap on table cells,
// the WriteMin/WriteMax priority-update operation (Shun et al., "Reducing
// contention through priority updates", SPAA 2013), fetch-and-add, and
// false-sharing-padded counters.
package atomicx

import "sync/atomic"

// WriteMin atomically stores val at addr iff val < current value. It
// returns true iff it performed the store. Concurrent WriteMins commute:
// the final value is the minimum of all written values regardless of
// scheduling, which is what makes it a determinism-preserving primitive.
func WriteMin(addr *uint64, val uint64) bool {
	for {
		cur := atomic.LoadUint64(addr)
		if val >= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, cur, val) {
			return true
		}
	}
}

// WriteMax atomically stores val at addr iff val > current value,
// returning true iff it stored.
func WriteMax(addr *uint64, val uint64) bool {
	for {
		cur := atomic.LoadUint64(addr)
		if val <= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, cur, val) {
			return true
		}
	}
}

// CAS is a thin alias for atomic.CompareAndSwapUint64, matching the
// CAS(loc, oldV, newV) notation used in the paper's pseudocode.
func CAS(addr *uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(addr, old, new)
}

// Load is a thin alias for atomic.LoadUint64.
func Load(addr *uint64) uint64 { return atomic.LoadUint64(addr) }

// Store is a thin alias for atomic.StoreUint64.
func Store(addr *uint64, v uint64) { atomic.StoreUint64(addr, v) }

// Add is fetch-and-add on uint64, returning the new value (the xadd
// primitive the paper's non-deterministic edge-contraction path uses).
func Add(addr *uint64, delta uint64) uint64 {
	return atomic.AddUint64(addr, delta)
}

// cacheLine is the assumed cache-line size in bytes; 64 on every machine
// the paper or this reproduction targets.
const cacheLine = 64

// PaddedCounter is a uint64 counter padded to a full cache line so that
// arrays of counters (one per worker) do not false-share.
type PaddedCounter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Add adds delta and returns the new value.
func (c *PaddedCounter) Add(delta uint64) uint64 { return c.v.Add(delta) }

// Load returns the current value.
func (c *PaddedCounter) Load() uint64 { return c.v.Load() }

// Store sets the value.
func (c *PaddedCounter) Store(v uint64) { c.v.Store(v) }

// PaddedInt64 is an int64 counter padded to a full cache line. The
// parallel runtime uses it for work-distribution hot words (the shared
// block cursor and outstanding-block count of a loop dispatch): the two
// words every worker hammers must not share a line with each other or
// with anything else, or the ping-ponging line becomes the scheduler's
// bottleneck.
type PaddedInt64 struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add adds delta and returns the new value.
func (c *PaddedInt64) Add(delta int64) int64 { return c.v.Add(delta) }

// Load returns the current value.
func (c *PaddedInt64) Load() int64 { return c.v.Load() }

// Store sets the value.
func (c *PaddedInt64) Store(v int64) { c.v.Store(v) }
