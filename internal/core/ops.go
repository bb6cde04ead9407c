package core

import "phasehash/internal/hashx"

// Empty is the reserved empty element (⊥ in the paper). Word tables may
// not store it; workloads therefore draw keys from [1, n].
const Empty uint64 = 0

// Ops defines the element semantics of a word table: how elements hash,
// how their keys are priority-ordered, and how two elements with equal
// keys are resolved. Implementations must be pure value types (typically
// empty structs) with no state the methods depend on.
//
// They do not make the calls direct. Go compiles one body per GC shape
// of the type argument, every empty-struct Ops shares one shape, and the
// shared body reaches Hash, Cmp and Merge through the instantiation's
// dictionary: an indirect call per use, which the compiler cannot inline.
// The probe kernels therefore keep the number of Hash calls per cell to
// a minimum (DESIGN.md §13, "Writes and the sync protocol").
//
// The priority order reported by Cmp must be a total order on keys, with
// Cmp(a, b) == 0 exactly when a and b carry the same key. The paper's
// convention that ⊥ has the lowest priority is handled by the tables
// themselves; Cmp is never called with an Empty argument.
type Ops interface {
	// Hash returns the full 64-bit hash of e's key. Tables reduce it
	// modulo their size.
	Hash(e uint64) uint64
	// Cmp orders elements by key priority: negative if a's key has lower
	// priority than b's, 0 if the keys are equal, positive otherwise.
	Cmp(a, b uint64) int
	// Merge resolves a duplicate-key insertion deterministically: cur is
	// the element in the table, new is the incoming element with the same
	// key; the result replaces cur. Merge must be commutative and
	// associative in the value it selects (e.g. max, min, sum) so that
	// the outcome is independent of arrival order.
	Merge(cur, new uint64) uint64
}

// SetOps treats the whole word as the key: a hash set of uint64 with the
// numeric order as priority order. Duplicate inserts are no-ops.
type SetOps struct{}

// Hash implements Ops.
func (SetOps) Hash(e uint64) uint64 { return hashx.Mix64(e) }

// Cmp implements Ops.
func (SetOps) Cmp(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Merge implements Ops.
func (SetOps) Merge(cur, _ uint64) uint64 { return cur }

// PairKey and PairValue unpack an element built by Pair.
func PairKey(e uint64) uint32   { return uint32(e >> 32) }
func PairValue(e uint64) uint32 { return uint32(e) }

// Pair packs a 32-bit key and 32-bit value into one word element. This is
// the reproduction's stand-in for the paper's double-word CAS on
// key-value pairs: one CAS still covers the whole pair (see DESIGN.md,
// substitutions). Key 0 with value 0 collides with Empty, so keys must be
// >= 1 (the PBBS distributions draw keys from [1, n]).
func Pair(key, value uint32) uint64 { return uint64(key)<<32 | uint64(value) }

// pairCmp orders pair elements by key only.
func pairCmp(a, b uint64) int {
	ka, kb := a>>32, b>>32
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	default:
		return 0
	}
}

// PairMinOps stores (key, value) pairs; on duplicate keys the pair with
// the minimum value wins (the paper's WriteMin-style priority function,
// used by the spanning-forest reservation phase).
type PairMinOps struct{}

// Hash implements Ops.
func (PairMinOps) Hash(e uint64) uint64 { return hashx.Mix64(e >> 32) }

// Cmp implements Ops.
func (PairMinOps) Cmp(a, b uint64) int { return pairCmp(a, b) }

// Merge implements Ops.
func (PairMinOps) Merge(cur, new uint64) uint64 {
	if uint32(new) < uint32(cur) {
		return new
	}
	return cur
}

// PairMaxOps is PairMinOps with maximum-value resolution.
type PairMaxOps struct{}

// Hash implements Ops.
func (PairMaxOps) Hash(e uint64) uint64 { return hashx.Mix64(e >> 32) }

// Cmp implements Ops.
func (PairMaxOps) Cmp(a, b uint64) int { return pairCmp(a, b) }

// Merge implements Ops.
func (PairMaxOps) Merge(cur, new uint64) uint64 {
	if uint32(new) > uint32(cur) {
		return new
	}
	return cur
}

// PairSumOps stores (key, value) pairs; duplicate keys add their values
// (the paper's '+' combining function, used by edge contraction for graph
// partitioning). Addition wraps modulo 2^32.
type PairSumOps struct{}

// Hash implements Ops.
func (PairSumOps) Hash(e uint64) uint64 { return hashx.Mix64(e >> 32) }

// Cmp implements Ops.
func (PairSumOps) Cmp(a, b uint64) int { return pairCmp(a, b) }

// Merge implements Ops.
func (PairSumOps) Merge(cur, new uint64) uint64 {
	return cur&^uint64(0xffffffff) | uint64(uint32(cur)+uint32(new))
}

// IdentOps is SetOps with the identity hash function. It exists for
// white-box tests that need full control of probe positions (adversarial
// clusters); real workloads should use SetOps.
type IdentOps struct{}

// Hash implements Ops.
func (IdentOps) Hash(e uint64) uint64 { return e }

// Cmp implements Ops.
func (IdentOps) Cmp(a, b uint64) int { return SetOps{}.Cmp(a, b) }

// Merge implements Ops.
func (IdentOps) Merge(cur, _ uint64) uint64 { return cur }
