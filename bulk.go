package phasehash

import (
	"fmt"

	"phasehash/internal/core"
	"phasehash/internal/parallel"
)

// This file exposes the bulk phase kernels (internal/core/bulk.go) on
// the public containers. A bulk call performs exactly the operations of
// the equivalent per-element loop — same phase discipline, same
// deterministic quiescent state — but runs them as monomorphic blocked
// loops on the persistent worker pool with software-pipelined probes,
// which is substantially faster than dispatching a closure per element
// (see EXPERIMENTS.md). Use them whenever a phase's operations are
// already in a slice.

// InsertAll inserts every key (insert phase) and returns how many grew
// the set — deterministic for a given key multiset. It panics on the
// reserved key 0 and on a full set, exactly as Insert does; use
// TryInsertAll where saturation must degrade gracefully.
func (s *Set) InsertAll(keys []uint64) int { return s.t.InsertAll(keys) }

// TryInsertAll is InsertAll returning errors instead of panicking. It
// attempts every key, returns how many grew the set, and reports the
// error of one failed insert when any failed (ErrReservedKey, ErrFull —
// matchable with errors.Is).
func (s *Set) TryInsertAll(keys []uint64) (int, error) { return s.t.TryInsertAll(keys) }

// ContainsAll reports how many of the keys are present (read phase).
func (s *Set) ContainsAll(keys []uint64) int { return s.t.ContainsAll(keys) }

// DeleteAll deletes every key (delete phase) and returns how many were
// removed.
func (s *Set) DeleteAll(keys []uint64) int { return s.t.DeleteAll(keys) }

// InsertAll inserts every entry, resolving duplicate keys per the
// policy (insert phase), and returns how many new keys were added. It
// panics on the reserved key 0 and on a full map; use TryInsertAll
// where saturation must degrade gracefully.
func (m *Map32) InsertAll(entries []Entry) int {
	n, err := m.TryInsertAll(entries)
	if err != nil {
		panic("phasehash: Map32: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning errors instead of panicking
// (ErrReservedKey, ErrFull — matchable with errors.Is). Entries with
// valid keys are all attempted even when some keys are reserved.
func (m *Map32) TryInsertAll(entries []Entry) (int, error) { return tryInsertEntries(m.t, entries) }

// FindAll looks up every key (read phase) and returns how many are
// present. When vals is non-nil it must have len(vals) >= len(keys) —
// a shorter vals panics before any lookup runs; vals[i] receives the
// value stored under keys[i], or 0 when absent. A nil vals counts
// without writing.
func (m *Map32) FindAll(keys []uint32, vals []uint32) int { return findKeys(m.t, "Map32", keys, vals) }

// DeleteAll deletes every key (delete phase) and returns how many were
// removed.
func (m *Map32) DeleteAll(keys []uint32) int { return m.t.DeleteAll(probePairs(keys)) }

// tryInsertEntries packs the entries with valid keys into pairs and
// inserts them; reserved keys are counted and reported after the rest
// have been attempted.
func tryInsertEntries(t pairTable, entries []Entry) (int, error) {
	packed := make([]uint64, 0, len(entries))
	reserved := 0
	for _, e := range entries {
		if e.Key == 0 {
			reserved++
			continue
		}
		packed = append(packed, core.Pair(e.Key, e.Value))
	}
	n, err := t.TryInsertAll(packed)
	if err == nil && reserved > 0 {
		err = fmt.Errorf("%w: key 0 (%d entries)", ErrReservedKey, reserved)
	}
	return n, err
}

// probePairs packs the keys into value-less pair probes.
func probePairs(keys []uint32) []uint64 {
	probes := make([]uint64, len(keys))
	parallel.For(len(keys), func(i int) { probes[i] = core.Pair(keys[i], 0) })
	return probes
}

// findKeys is the pair maps' FindAll: it checks vals on the caller's
// goroutine, looks the keys up in place and unpacks the values.
func findKeys(t pairTable, who string, keys []uint32, vals []uint32) int {
	checkVals(who, len(keys), vals)
	probes := probePairs(keys)
	if vals == nil {
		return t.FindAll(probes, nil)
	}
	n := t.FindAll(probes, probes)
	parallel.For(len(keys), func(i int) { vals[i] = core.PairValue(probes[i]) })
	return n
}

// checkVals panics, on the caller's goroutine and before any lookup
// runs, when a non-nil FindAll vals is shorter than the keys.
func checkVals[T any](who string, keys int, vals []T) {
	if vals != nil && len(vals) < keys {
		panic(fmt.Sprintf("phasehash: %s.FindAll: vals has length %d, need %d", who, len(vals), keys))
	}
}

// InsertAll inserts (keys[i], vals[i]) for every i, resolving duplicate
// keys per the policy (insert phase), and returns how many new keys
// were added. keys and vals must have equal length. It panics on a full
// map; use TryInsertAll where saturation must degrade gracefully.
func (m *StringMap) InsertAll(keys []string, vals []uint64) int {
	n, err := m.TryInsertAll(keys, vals)
	if err != nil {
		panic("phasehash: StringMap: " + err.Error())
	}
	return n
}

// TryInsertAll is InsertAll returning ErrFull (matchable with
// errors.Is) instead of panicking when the map saturates.
func (m *StringMap) TryInsertAll(keys []string, vals []uint64) (int, error) {
	if len(keys) != len(vals) {
		return 0, fmt.Errorf("phasehash: StringMap.TryInsertAll: %d keys, %d values", len(keys), len(vals))
	}
	entries := make([]*strEntry, len(keys))
	parallel.For(len(keys), func(i int) {
		entries[i] = &strEntry{key: keys[i], val: vals[i]}
	})
	return m.t.TryInsertAll(entries)
}

// FindAll looks up every key (read phase) and returns how many are
// present. When vals is non-nil it must have len(vals) >= len(keys) —
// a shorter vals panics before any lookup runs; vals[i] receives the
// value stored under keys[i], or 0 when absent.
func (m *StringMap) FindAll(keys []string, vals []uint64) int {
	checkVals("StringMap", len(keys), vals)
	probes := make([]*strEntry, len(keys))
	parallel.For(len(keys), func(i int) { probes[i] = &strEntry{key: keys[i]} })
	var dst []*strEntry
	if vals != nil {
		dst = make([]*strEntry, len(keys))
	}
	n := m.t.FindAll(probes, dst)
	if vals != nil {
		parallel.For(len(keys), func(i int) {
			if dst[i] != nil {
				vals[i] = dst[i].val
			} else {
				vals[i] = 0
			}
		})
	}
	return n
}

// DeleteAll deletes every key (delete phase) and returns how many were
// removed.
func (m *StringMap) DeleteAll(keys []string) int {
	probes := make([]*strEntry, len(keys))
	parallel.For(len(keys), func(i int) { probes[i] = &strEntry{key: keys[i]} })
	return m.t.DeleteAll(probes)
}
