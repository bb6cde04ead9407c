// Package dedup implements the paper's remove-duplicates application
// (Section 5, Table 3): insert every element of a sequence into a hash
// table, then return the table's contents. With the deterministic table
// the output sequence is identical on every run and thread count; with
// the others only the output *set* is stable.
package dedup

import (
	"phasehash/internal/core"
	"phasehash/internal/parallel"
	"phasehash/internal/sequence"
	"phasehash/internal/tables"
)

// Run removes duplicates from elems using a table of the given kind. The
// table is sized per the paper's Table 3 configuration (the smallest
// power of two >= capacity; callers typically pass ~1.3-2x the expected
// distinct count — the paper uses 2^27 cells for n=10^8 inputs).
func Run(kind tables.Kind, elems []uint64, capacity int) []uint64 {
	tab := tables.MustNew[core.SetOps](kind, capacity)
	tables.InsertAll(tab, elems)
	return tab.Elements()
}

// RunPairs removes duplicate *keys* from packed key-value elements,
// resolving each key's value with the paper's deterministic
// priority-on-values rule (minimum value wins).
func RunPairs(kind tables.Kind, elems []uint64, capacity int) []uint64 {
	tab := tables.MustNew[core.PairMinOps](kind, capacity)
	tables.InsertAll(tab, elems)
	return tab.Elements()
}

// RunStrings removes duplicate string-keyed pairs with the deterministic
// pointer table (the trigramSeq-pairInt configuration).
func RunStrings(pairs []*sequence.StrPair, capacity int) []*sequence.StrPair {
	tab := core.NewPtrTable[sequence.StrPair, sequence.StrPairOps](capacity)
	tab.InsertAll(pairs)
	return tab.Elements()
}

// RunSorting is the sorting-based baseline the paper mentions (sort, then
// keep the first of each run); used in tests as an oracle and in the
// ablation benchmark comparing hashing against sorting.
func RunSorting(elems []uint64) []uint64 {
	if len(elems) == 0 {
		return nil
	}
	s := make([]uint64, len(elems))
	copy(s, elems)
	parallel.SortInts(s)
	return parallel.Pack(s, func(i int) bool { return i == 0 || s[i] != s[i-1] })
}
