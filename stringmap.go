package phasehash

import (
	"phasehash/internal/core"
	"phasehash/internal/hashx"
)

// strEntry is the record type stored behind a pointer in StringMap —
// the paper's indirection path for elements wider than a CAS.
type strEntry struct {
	key string
	val uint64
}

type strOpsMin struct{}

func (strOpsMin) Hash(e *strEntry) uint64 { return hashx.HashString(e.key) }
func (strOpsMin) Cmp(a, b *strEntry) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	default:
		return 0
	}
}
func (strOpsMin) Merge(cur, new *strEntry) *strEntry {
	if new.val < cur.val {
		return new
	}
	return cur
}

type strOpsSum struct{}

func (strOpsSum) Hash(e *strEntry) uint64 { return hashx.HashString(e.key) }
func (strOpsSum) Cmp(a, b *strEntry) int  { return strOpsMin{}.Cmp(a, b) }
func (strOpsSum) Merge(cur, new *strEntry) *strEntry {
	return &strEntry{key: cur.key, val: cur.val + new.val}
}

// StringMap is a deterministic phase-concurrent map from string keys to
// uint64 values. Entries are stored behind pointers and swapped with
// pointer CAS — the representation the paper uses for its string-keyed
// (trigramSeq) experiments. The phase discipline is the same as Set's.
type StringMap struct {
	t strTable
}

// strTable is the one table behind a StringMap: a core.PtrTable over
// the policy's strEntry Ops. Both policies' tables satisfy it, so the
// map's methods are written once.
type strTable interface {
	TryInsert(e *strEntry) (bool, error)
	Find(e *strEntry) (*strEntry, bool)
	Delete(e *strEntry) bool
	TryInsertAll(entries []*strEntry) (int, error)
	FindAll(probes, dst []*strEntry) int
	DeleteAll(probes []*strEntry) int
	Elements() []*strEntry
	Count() int
}

// NewStringMap returns a string map with the given capacity and
// duplicate policy (KeepMin, KeepMax is not offered — negate values or
// use Sum).
func NewStringMap(capacity int, policy Combine) *StringMap {
	switch policy {
	case KeepMin:
		return &StringMap{t: core.NewPtrTable[strEntry, strOpsMin](capacity)}
	case Sum:
		return &StringMap{t: core.NewPtrTable[strEntry, strOpsSum](capacity)}
	}
	panic("phasehash: StringMap supports KeepMin and Sum policies")
}

// Insert adds (k, v), resolving duplicate keys per the policy (insert
// phase). It reports whether a new key was added. It panics on a full
// map; use TryInsert where saturation must degrade gracefully.
func (m *StringMap) Insert(k string, v uint64) bool {
	added, err := m.TryInsert(k, v)
	if err != nil {
		panic("phasehash: StringMap: " + err.Error())
	}
	return added
}

// TryInsert is Insert returning ErrFull (matchable with errors.Is)
// instead of panicking when the map is saturated.
func (m *StringMap) TryInsert(k string, v uint64) (bool, error) {
	return m.t.TryInsert(&strEntry{key: k, val: v})
}

// Find returns the value stored under k (read phase).
func (m *StringMap) Find(k string) (uint64, bool) {
	e, ok := m.t.Find(&strEntry{key: k})
	if !ok {
		return 0, false
	}
	return e.val, true
}

// Delete removes key k (delete phase).
func (m *StringMap) Delete(k string) bool {
	return m.t.Delete(&strEntry{key: k})
}

// StringEntry is one key-value pair of a StringMap.
type StringEntry struct {
	Key   string
	Value uint64
}

// Entries returns the contents in a deterministic order (read phase).
func (m *StringMap) Entries() []StringEntry {
	raw := m.t.Elements()
	out := make([]StringEntry, len(raw))
	for i, e := range raw {
		out[i] = StringEntry{Key: e.key, Value: e.val}
	}
	return out
}

// Count returns the number of keys (read phase).
func (m *StringMap) Count() int { return m.t.Count() }
