// Package hashx provides the hash functions and deterministic
// pseudo-random number generators used throughout the reproduction. All
// functions are pure and seed-stable, so every experiment is exactly
// repeatable.
package hashx

// Mix64 is the splitmix64 finalizer: an invertible mixing of a 64-bit
// word with strong avalanche behaviour. It is the hash function h used by
// all open-addressing tables (the PBBS code the paper builds on uses an
// equivalent multiplicative finalizer).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Unmix64 inverts Mix64. Having the inverse lets tests construct keys
// that hash to chosen buckets, which the collision and cluster tests use.
func Unmix64(x uint64) uint64 {
	x = (x ^ (x >> 31) ^ (x >> 62)) * 0x319642b2d24d8ec3
	x = (x ^ (x >> 27) ^ (x >> 54)) * 0x96de1b173f119089
	x = x ^ (x >> 30) ^ (x >> 60)
	return x - 0x9e3779b97f4a7c15
}

// HashString hashes a byte string with the FNV-1a core followed by a
// Mix64 finalization, giving 64-bit string hashing good enough for the
// trigram workloads.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return Mix64(h)
}

// FingerprintShift is the bit offset of the 7-bit fingerprint field
// inside a 64-bit hash: Fingerprint reads bits [57, 64) — the hash's
// top seven bits — and nothing else. The placement is load-bearing
// twice over:
//
//   - the compact table keys its displacement priority on the *full
//     hash* (numeric order, highest first along each probe path), so
//     the top seven bits are the most significant digits of the
//     priority key. Storing exactly those bits in the control byte
//     makes an unsigned byte comparison of two full-slot ctrl bytes a
//     coarse comparison of the slots' priorities: ctrl < pattern
//     proves the slot's hash is strictly below the probe's, which
//     under the descending-priority probe invariant ends a miss — in
//     the control word, before any cell load;
//   - the home bucket reduces the hash modulo the table size and
//     therefore reads the *low* log2(m) bits — disjoint from the
//     fingerprint for every table below 2^57 cells, so the fingerprint
//     carries no information about where the element lands.
//
// Because the fingerprint is a pure function of the hash, the quiescent
// ctrl byte of a slot is determined by the cell it shadows, which is
// what keeps the control array history-independent for free.
const FingerprintShift = 57

// Fingerprint returns the control-array byte for a full slot holding an
// element with hash h: bit 7 set (the full/empty discriminant; empty is
// 0x00, with bit 7 clear) and the hash's top seven bits in bits 0-6.
// The result is always in [0x80, 0xFF] — nonzero by construction, no
// remapping — and byte order on full-slot fingerprints agrees with
// numeric order on the hashes' top seven bits, which is what the
// compact table's word-at-a-time priority pruning relies on.
func Fingerprint(h uint64) byte {
	return byte(h>>FingerprintShift) | 0x80
}

// RNG is a splitmix64 pseudo-random generator: tiny state, deterministic
// streams, and cheap jump-ahead (each index can be hashed independently),
// which lets parallel loops draw the i-th random number without
// coordination.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64-bit value in the stream.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniform in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Float64 returns a value uniform in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// At returns the i-th value of the stream with the given seed without
// generating the preceding ones: splitmix64 applied to seed + i*gamma.
// Parallel generators use At so that the produced sequence is identical
// to the sequential one regardless of how the loop is scheduled.
func At(seed uint64, i int) uint64 {
	return Mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
}

// Float64At is At mapped into [0, 1).
func Float64At(seed uint64, i int) float64 {
	return float64(At(seed, i)>>11) / (1 << 53)
}
