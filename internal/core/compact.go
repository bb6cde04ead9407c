package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/hashx"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// CompactTable is the space-efficient variant of WordTable
// (linearHash-D-compact): deterministic priority-ordered linear probing
// over one-word elements, plus a separate *control array* of one byte
// per slot — bit 7 set plus the 7-bit fingerprint of the stored
// element's hash for a full slot, zero for an empty one — scanned eight
// slots per 64-bit load with portable SWAR masking.
//
// Where WordTable keys its displacement priority on the raw element
// order (ops.Cmp), CompactTable keys it on the *full hash*, numeric
// order, with ops.Cmp breaking exact hash ties (cmpPri). That choice is
// what makes the control array a probe accelerator rather than just a
// presence filter: the fingerprint is the hash's top seven bits
// (hashx.Fingerprint), so unsigned byte order on full-slot ctrl bytes
// coarsely mirrors the priority order along every probe cluster, which
// descends. One SWAR expression per ctrl word (swarStop) flags the
// lanes whose byte is <= the probe's own fingerprint — exactly the
// slots that can end the probe:
//
//   - a lane *below* the pattern is an empty slot or a full slot with
//     a strictly smaller hash prefix; both prove the key absent under
//     the descending-priority invariant, with no cell load at all. A
//     uniform miss therefore
//     resolves in ~one ctrl word: the expected number of higher-or-tie
//     lanes skipped before a sub-pattern lane is ~1 even at load 0.9.
//   - a lane *equal* to the pattern is a candidate: load the cell,
//     compare full hashes (then keys on a tie) to get hit / miss /
//     keep-scanning. Ties are about 1-in-128 per full lane, so hits
//     touch the cell array about once.
//
// The table stays fast at load factor ~0.9 because the extra probe
// steps of a long cluster cost ctrl *bytes*, not cell words: 9
// bytes/slot at load 0.9 is 10 bytes/element, versus the flat table's
// 16 at load 0.5 (and 32 at the benchmarks' standard 4x-capacity
// sizing).
//
// Determinism: the cells obey WordTable's insert/delete discipline with
// cmpPri as the total priority order (total because ops.Cmp breaks hash
// ties, and equal keys hash equally), so the quiescent cell layout is
// history-independent by exactly WordTable's argument — a function of
// the element set and capacity only, though *not* byte-identical to
// WordTable's layout, which sorts clusters by a different order. The
// ctrl array adds no history of its own because each quiescent ctrl
// byte is a pure function of its cell: Fingerprint(Hash(cell)) or zero
// (see syncCtrl for why every schedule converges there, and
// hashx.Fingerprint for why the fingerprint bits are disjoint from the
// home-bucket bits). The detres oracle pins (cells ++ ctrl)
// byte-identity across its seed × worker × chaos-profile grid, with a
// serial rebuild as the reference layout.
//
// The write paths never *read* the control array — inserts and deletes
// compare priorities via cells and Hash alone. This is load-bearing for
// determinism, not just simplicity: mid-phase, ctrl bytes lag their
// cells (syncCtrl repairs them asynchronously), so any write-path
// decision taken on a ctrl byte could observe a stale value and steer
// displacement by schedule history.
//
// The write paths are also where the compact table spends its time when
// it is cache-resident, so each write step hashes each cell at most
// once: the insert loop and the delete victim scan compare the hashes
// inline (ops.Cmp only on an exact tie), findReplacement hands back the
// hash of the element it chose, and syncCtrl publishes the byte of the
// value its caller just wrote from the hash the caller holds, deriving
// it from the cell only when the fast path meets a race.
//
// Phase discipline, lock-freedom and the reserved Empty element are as
// WordTable. The zero value is not usable; construct with
// NewCompactTable.
type CompactTable[O Ops] struct {
	wordCells[O]          // len(cells) is a power of two >= 8
	ctrl         []uint64 // len(cells)/8 packed ctrl bytes, little-endian lanes
}

// Ctrl byte encoding. A slot's byte is ctrlEmpty when its cell is
// Empty and the element's fingerprint (bit 7 set: [0x80, 0xFF]) when
// full. The empty byte keeps bit 7 clear, so it compares below every
// fingerprint and reads as a stop lane to the SWAR scan.
const ctrlEmpty byte = 0x00

// NewCompactTable returns a compact table with size rounded up to the
// next power of two m cells (at least 8, so the control array is a
// whole number of words). Capacity semantics are NewWordTable's: up to
// m elements, with a further absent-key insert failing with ErrFull
// (Insert panics, TryInsert returns it). The compact layout is designed
// to run at load factors up to ~0.9: size with ~10% headroom where
// WordTable needs ~2x.
func NewCompactTable[O Ops](size int) *CompactTable[O] {
	m := 8
	for m < size {
		m <<= 1
	}
	return &CompactTable[O]{newWordCells[O](m), make([]uint64, m/8)}
}

// Size returns the capacity (number of cells) of the table.
func (t *CompactTable[O]) Size() int { return len(t.cells) }

// Bytes returns the backing memory of the table: 8 bytes per cell plus
// 1 ctrl byte per slot (9 bytes/slot total). The bench harness divides
// it by Count() for the bytes/element comparison against WordTable.
func (t *CompactTable[O]) Bytes() int { return len(t.cells)*8 + len(t.ctrl)*8 }

// cmpPri is the compact table's displacement priority order: full
// hashes first, numerically, with ops.Cmp breaking exact 64-bit ties.
// It is total because ops.Cmp is total on keys and equal keys hash
// equally; it is consistent with key equality because cmpPri == 0
// forces ops.Cmp == 0. Callers pass the hashes they already hold (ha =
// Hash(a), hb = Hash(b)). The insert loop and the delete victim scan
// write the same comparison out inline, so the common case costs two
// integer compares and no call. The fingerprint is the top-seven-bit
// prefix of this key, which is what lets findLoop compare priorities in
// the ctrl word without loading cells.
func (t *CompactTable[O]) cmpPri(a uint64, ha uint64, b uint64, hb uint64) int {
	switch {
	case ha < hb:
		return -1
	case ha > hb:
		return 1
	default:
		return t.ops.Cmp(a, b)
	}
}

// ctrlByteFor derives the quiescent ctrl encoding of cell value c —
// the pure function the control array converges to.
func (t *CompactTable[O]) ctrlByteFor(c uint64) byte {
	if c == Empty {
		return ctrlEmpty
	}
	return hashx.Fingerprint(t.ops.Hash(c))
}

// loadCtrlWord atomically reads the ctrl word covering unnormalized
// position p (p's low three bits select a lane within it).
func (t *CompactTable[O]) loadCtrlWord(p int) uint64 {
	return atomic.LoadUint64(&t.ctrl[(p&t.mask)>>3])
}

// SWAR lane masks (the classic "determine if a word has a zero byte"
// bit trick, generalized to any byte by XOR).
const (
	swarLSB uint64 = 0x0101010101010101
	swarMSB uint64 = 0x8080808080808080
)

// swarStop returns a mask with bit 7 set in *exactly* the lanes of w
// whose byte is <= the probe's fingerprint — the stop lanes of the
// priority scan. patd is swarLSB * uint64(fp), hoisted by the caller;
// fp must have bit 7 set (a full-slot fingerprint).
//
// Why it is exact, per lane: MSB-clear lanes (empty) are flagged by
// ^w & swarMSB directly. For the rest, w &^ swarMSB holds
// each lane's low seven bits, a value <= 0x7F, while each patd lane is
// fp >= 0x80 — so the per-lane subtraction patd - (w &^ swarMSB) can
// never go negative and therefore never borrows across a lane
// boundary. Its lane MSB is set iff fp - low7 >= 0x80, i.e. iff low7
// <= low7(fp); ANDing with w restricts that to MSB-set lanes, giving
// "full and byte <= fp". No false positives in either direction —
// FuzzCtrlScan pins exact equality against a byte-at-a-time oracle.
func swarStop(w, patd uint64) uint64 {
	return (^w | (patd-(w&^swarMSB))&w) & swarMSB
}

// syncCtrl converges the ctrl byte of position p onto the encoding of
// p's current cell. It is called after every successful cell CAS on
// the atomic insert/delete paths (claim, displace, delete-replacement;
// merges keep the fingerprint — equal keys hash equally — so they skip
// it) with the value x that CAS wrote and x's byte b, which the caller
// already holds: Fingerprint of the hash it probed with, or ctrlEmpty
// when a delete emptied the slot. It is the entire history-independence
// argument for the control array.
//
// Fast path, no hashing: load the ctrl word; if p's lane already reads
// b, re-read the cell and return if it still holds x. Otherwise CAS the
// lane to b and, if that succeeds, return when a re-read of the cell
// still holds x. Every other outcome — a lost CAS, a cell that moved on
// since the caller's CAS, a chaos-forced failure — falls into the
// derive-from-cell loop, which exits only on *observed consistency*: a
// ctrl byte equal to ctrlByteFor of a cell value that is unchanged when
// re-read after the ctrl read. Publishing a byte never exits by itself.
//
// So every exit, fast or slow, is preceded by a moment τ after the
// call's last lane write (a ctrl load, or the successful CAS itself) at
// which the lane equals the byte of a value x that the cell still holds
// on a re-read after τ. When a phase quiesces, take the last write to
// p's lane (at time T) and the last write to p's cell that changed its
// byte (at time C, by a writer whose syncCtrl starts after C). That
// writer's τ follows C, so the lane read there is the final cell's
// byte; if τ >= T that is the final lane. If τ < T, the lane's last
// writer exits through a τ' >= T > C, and the cell it re-reads then is
// the final one. Either way ctrl[p] == ctrlByteFor(cells[p]) at
// quiescence: the ctrl array is a pure function of the cell array,
// which is history-independent by WordTable's argument — no schedule
// leaves a trace. (The fast path's re-read after its CAS is what keeps a
// writer whose cell moved on from leaving a stale byte as the last
// write.)
//
// Progress: a failed publication CAS means another syncer changed the
// word (lock-free, not wait-free — the standard bound for the table's
// CAS loops); cell values change finitely often per phase, after which
// every racing syncer's derived byte agrees and the first successful
// publication satisfies all of them.
func (t *CompactTable[O]) syncCtrl(p int, x uint64, b byte) {
	s := p & t.mask
	w := s >> 3
	sh := uint(s&7) * 8
	lane := uint64(0xFF) << sh
	want := uint64(b) << sh
	old := atomic.LoadUint64(&t.ctrl[w])
	if old&lane == want {
		if atomic.LoadUint64(&t.cells[s]) == x {
			return
		}
	} else if !(chaos.Enabled && chaos.FailCAS(chaos.SiteCompactCtrlCAS)) &&
		atomic.CompareAndSwapUint64(&t.ctrl[w], old, old&^lane|want) &&
		atomic.LoadUint64(&t.cells[s]) == x {
		return
	}
	for {
		c := atomic.LoadUint64(&t.cells[s])
		want := uint64(t.ctrlByteFor(c)) << sh
		old := atomic.LoadUint64(&t.ctrl[w])
		if old&lane == want && atomic.LoadUint64(&t.cells[s]) == c {
			return
		}
		if chaos.Enabled && chaos.FailCAS(chaos.SiteCompactCtrlCAS) {
			continue // pretend the publication CAS lost; pure retry
		}
		atomic.CompareAndSwapUint64(&t.ctrl[w], old, old&^lane|want)
		// Loop regardless of the CAS outcome: exit only through the
		// validated read above.
	}
}

// Insert adds element v to the table (insert phase only); semantics
// exactly as WordTable.Insert. It panics on the reserved empty element
// and on a completely full table; use TryInsert where
// saturation must degrade gracefully.
func (t *CompactTable[O]) Insert(v uint64) bool {
	if v == Empty {
		panic("core: CompactTable: cannot insert the reserved empty element")
	}
	added, err := t.TryInsert(v)
	if err != nil {
		panic("core: CompactTable: " + err.Error())
	}
	return added
}

// TryInsert is Insert returning errors instead of panicking:
// ErrReservedKey for the reserved empty element and ErrFull when the
// probe sequence sweeps the whole backing array. Both satisfy
// errors.Is against the package sentinels.
func (t *CompactTable[O]) TryInsert(v uint64) (bool, error) {
	if v == Empty {
		return false, reservedErr()
	}
	h := t.ops.Hash(v)
	added, full, steps, carried := t.insertLoop(v, h)
	if full {
		if carried != v {
			unwind(t, []homeless[uint64]{{v, carried}})
		}
		return false, t.fullErr()
	}
	obs.PublishInsert(int(h), steps)
	return added, nil
}

// insertLoop is WordTable.insertLoop — the same Figure 1 INSERT
// probe/CAS discipline over the cells, with cmpPri as the priority
// order (hv = Hash(v) rides along; each contested slot's hash is
// computed once per examination, and cmpPri is inlined) — plus a
// syncCtrl after every CAS that changes a slot's occupancy or
// fingerprint (claim, displace), publishing Fingerprint(hv) for the
// value just written. Merges resolve equal keys, and equal keys have
// equal hashes, so the fingerprint is unchanged and no sync is needed.
// Inserts do not consult the ctrl array at all — see the type comment:
// mid-phase ctrl bytes can lag their cells, and a probe decision taken
// on a stale byte would make the layout schedule-dependent. The steps
// walked and the element carried out of a full table are returned as by
// WordTable.insertLoop.
func (t *CompactTable[O]) insertLoop(v uint64, hv uint64) (added, full bool, steps int, carried uint64) {
	i := int(hv) & t.mask
	start := i
	limit := i + len(t.cells)
	for {
		if chaos.Enabled {
			chaos.Yield(chaos.SiteCompactInsertProbe)
		}
		if i >= limit {
			return false, true, i - start, v
		}
		c := t.load(i)
		if c == Empty {
			if chaos.Enabled && chaos.FailCAS(chaos.SiteCompactInsertClaim) {
				continue // pretend the CAS lost; re-read the cell
			}
			if t.cas(i, Empty, v) {
				t.syncCtrl(i, v, hashx.Fingerprint(hv))
				return true, false, i - start, Empty
			}
			continue // re-read the cell
		}
		// cmpPri(c, hc, v, hv) written out: ops.Cmp runs only on an
		// exact 64-bit hash tie.
		hc := t.ops.Hash(c)
		cmp := 1
		if hc < hv {
			cmp = -1
		} else if hc == hv {
			cmp = t.ops.Cmp(c, v)
		}
		switch {
		case cmp == 0:
			merged := t.ops.Merge(c, v)
			if chaos.Enabled && merged != c && chaos.FailCAS(chaos.SiteCompactInsertMerge) {
				continue
			}
			if merged == c || t.cas(i, c, merged) {
				return false, false, i - start, Empty
			}
		case cmp > 0: // cell has higher priority; keep probing
			i++
		default: // v has higher priority; swap in and carry c forward
			if chaos.Enabled && chaos.FailCAS(chaos.SiteCompactInsertDisplace) {
				continue
			}
			if t.cas(i, c, v) {
				t.syncCtrl(i, v, hashx.Fingerprint(hv))
				v, hv = c, hc
				i++
			}
		}
	}
}

// Find reports the element stored under v's key (find/elements phase
// only; also safe during quiescence); semantics as WordTable.Find, via
// the SWAR priority scan of the control array.
func (t *CompactTable[O]) Find(v uint64) (uint64, bool) {
	h := t.ops.Hash(v)
	e, ok, steps := t.findLoop(v, h)
	obs.PublishFind(int(h), steps, ok)
	return e, ok
}

// findLoop is Find's probe for v with hash hv, from its home i and with
// its fingerprint fp. The scan walks ctrl *words*: each
// 64-bit load covers eight slots, and swarStop flags exactly the lanes
// whose byte is <= fp. Lanes above fp hold strictly-higher-priority
// cells — legal prefix of v's probe cluster, skipped wholesale without
// touching the cell array. The first stop lane decides:
//
//   - byte < fp: an empty slot ends v's cluster, and a full slot's
//     fingerprint below fp proves Hash(cell) < hv — under the
//     descending cmpPri invariant, v cannot live at or past this slot.
//     Either way, miss, with zero cell loads.
//   - byte == fp: a candidate. Load the cell and compare full hashes:
//     hc > hv keeps scanning (still in the higher-priority prefix),
//     hc < hv is a miss by the same ordering argument, and on hc == hv
//     ops.Cmp settles it — 0 is the hit, > 0 a miss (v would precede
//     c), < 0 keeps scanning. Equal bytes are 1-in-128 per full lane
//     scanned, so misses almost never load a cell and hits load ~one.
//
// This is WordTable.findLoop's verdict logic with the priority test
// lifted into the control bytes: the fingerprint IS the priority key's
// top seven bits, so the byte comparison is the first seven bits of the
// cmpPri comparison. The whole-array sweep bound matters on a saturated
// table, as in WordTable; the final word's lanes past the bound
// re-examine slots the sweep already covered and can produce no verdict
// the earlier examination did not.
//
// The fingerprint's SWAR pattern (swarLSB*fp) is hoisted out of the
// word loop; the below-origin lane mask is a shift by zero for every
// word after the first, which costs less than guarding it with a
// branch. steps is the slot distance from i to the lane that gave the
// verdict (the table size after a full sweep).
func (t *CompactTable[O]) findLoop(v uint64, hv uint64) (e uint64, ok bool, steps int) {
	i, fp := int(hv)&t.mask, hashx.Fingerprint(hv)
	patd := swarLSB * uint64(fp)
	limit := i + len(t.cells)
	for p := i; p < limit; p = p&^7 + 8 {
		base := p &^ 7
		w := t.loadCtrlWord(base)
		stop := swarStop(w, patd)
		// Mask off lanes before the probe origin in the first word (flag
		// bits sit at lane*8+7, so clearing everything below lane*8 is
		// enough).
		stop &= ^uint64(0) << (uint(p-base) * 8)
		for ; stop != 0; stop &= stop - 1 {
			l := bits.TrailingZeros64(stop) >> 3
			b := byte(w >> (uint(l) * 8))
			if b != fp {
				// Empty slot or a strictly lower hash prefix: miss, no cell
				// load.
				return Empty, false, base + l - i
			}
			c := t.load(base + l)
			hc := t.ops.Hash(c)
			if hc == hv {
				cmp := t.ops.Cmp(v, c)
				if cmp == 0 {
					return c, true, base + l - i
				}
				if cmp > 0 {
					return Empty, false, base + l - i
				}
			} else if hc < hv {
				return Empty, false, base + l - i
			}
			// hc > hv (or a tie with c of higher key priority): still in
			// the higher-priority prefix under a colliding fingerprint;
			// keep scanning.
		}
	}
	// Full sweep without a verdict: the table is saturated and v absent.
	return Empty, false, len(t.cells)
}

// Contains is Find without returning the element.
func (t *CompactTable[O]) Contains(v uint64) bool {
	_, ok := t.Find(v)
	return ok
}

// Delete removes the element with v's key (delete phase only);
// semantics exactly as WordTable.Delete. The probe and replacement
// scans read cells, not ctrl — the back-shift walk needs every cell's
// hash anyway — and each successful replacement CAS publishes the
// slot's new ctrl byte through syncCtrl: the byte goes straight from
// the old fingerprint to the replacement's (or to empty when the
// cluster ends).
func (t *CompactTable[O]) Delete(v uint64) bool {
	h := t.ops.Hash(v)
	deleted, steps := t.deleteLoop(v, h)
	obs.PublishDelete(int(h), steps)
	return deleted
}

// deleteLoop is WordTable.deleteLoop over the compact cells with cmpPri
// as the priority order (inlined in the victim scan), plus ctrl
// publication; see findReplacement there for the two-pass scan's
// correctness argument. findReplacement (shared with WordTable) returns
// the replacement's hash,
// which is both its ctrl byte (syncCtrl after the replacement CAS, or
// ctrlEmpty when the hole ends the cluster) and the probe hash of the
// next round, which deletes the copy it left behind — no cell is hashed
// twice. steps is the victim-scan length, as in WordTable.deleteLoop.
func (t *CompactTable[O]) deleteLoop(v uint64, hv uint64) (deleted bool, steps int) {
	i := int(hv) & t.mask
	home := i
	k := i
	for k < home+len(t.cells) {
		c := t.load(k)
		if c == Empty {
			break
		}
		// cmpPri(v, hv, c, hc) >= 0, with ops.Cmp only on a hash tie.
		if hc := t.ops.Hash(c); hv > hc || hv == hc && t.ops.Cmp(v, c) >= 0 {
			break
		}
		k++
	}
	steps = k - home
	for k >= i {
		if chaos.Enabled {
			// Yield only: a forced CAS failure here would be read as "a
			// concurrent delete removed the victim", changing semantics.
			chaos.Yield(chaos.SiteCompactDeleteProbe)
		}
		c := t.load(k)
		if c == Empty || t.ops.Cmp(v, c) != 0 {
			k--
			continue
		}
		j, w, hw := t.findReplacement(k, chaos.SiteCompactDeleteProbe)
		if t.cas(k, c, w) {
			b := ctrlEmpty
			if w != Empty {
				b = hashx.Fingerprint(hw)
			}
			t.syncCtrl(k, w, b)
			deleted = true
			if w == Empty {
				return true, steps
			}
			// There are now two copies of w; we own deleting one.
			v, hv = w, hw
			k = j
			i = t.lift(hv&uint64(t.mask), j)
		} else {
			// v was deleted or moved down by a concurrent delete.
			k--
		}
	}
	return deleted, steps
}

// Elements packs the non-empty cells into a fresh slice in table order
// (find/elements phase only); deterministic as WordTable.Elements — a
// pure function of the element set and capacity, though ordered by the
// compact table's own hash-keyed layout, not WordTable's. The count
// pass reads the control array, the copy pass the cells.
func (t *CompactTable[O]) Elements() []uint64 {
	return elements[uint64](t, len(t.cells), 0)
}

// ElementsInto packs the non-empty cells into dst and returns the
// number packed; the contract is on dst's *length* (>= Count()), as
// WordTable.ElementsInto.
func (t *CompactTable[O]) ElementsInto(dst []uint64) int {
	return elementsInto(t, len(t.cells), 0, dst)
}

// Count returns the number of elements currently stored (parallel
// scan of the control array; find/elements phase only).
func (t *CompactTable[O]) Count() int {
	return countElements[uint64](t, len(t.cells), 0)
}

// countRange counts the full slots in [lo, hi): the count pass of
// Elements and Count. Whole ctrl words are a popcount of their
// full-slot bits — eight slots per load, an eighth of the cells'
// memory — and a block edge that splits a word reads its cells.
// Quiescent ctrl bytes are a pure function of their cells (syncCtrl),
// so both reads give the same answer.
//
//phasehash:serial find/elements phase: no insert or delete is in flight, so cells and ctrl are quiescent under the plain reads; CountAtomic is the cross-phase variant
func (t *CompactTable[O]) countRange(lo, hi int) int {
	n := 0
	for ; lo < hi && lo&7 != 0; lo++ {
		if t.cells[lo] != Empty {
			n++
		}
	}
	for _, w := range t.ctrl[lo>>3 : hi>>3] {
		n += bits.OnesCount64(w & swarMSB)
	}
	for lo = max(lo, hi&^7); lo < hi; lo++ {
		if t.cells[lo] != Empty {
			n++
		}
	}
	return n
}

// CountAtomic is Count with atomic cell reads: safe mid-phase (a racy
// snapshot; used by fullErr's saturation report).
func (t *CompactTable[O]) CountAtomic() int { return t.countAtomic() }

// ForEach calls fn for every stored element in table order (sequential;
// find/elements phase only).
func (t *CompactTable[O]) ForEach(fn func(e uint64)) { t.forEach(fn) }

// Clear resets every cell and ctrl byte (a phase barrier by itself:
// callers must not run it concurrently with anything).
//
//phasehash:serial quiescent: Clear is itself a phase barrier; nothing runs concurrently with it by contract
func (t *CompactTable[O]) Clear() {
	t.clearCells()
	parallel.ForBlocked(len(t.ctrl), 0, func(lo, hi int) { clear(t.ctrl[lo:hi]) })
}

// CheckInvariant verifies WordTable's ordering invariant over the
// cells AND the control-array invariant: every ctrl byte equals the
// derived encoding of its cell — in particular no stale fingerprint
// survives to quiescence. Quiescent use only; exported for tests and
// the fuzzing harness.
//
//phasehash:serial quiescent use only: invariant checks run between phases with no operation in flight
func (t *CompactTable[O]) CheckInvariant() error {
	m := len(t.cells)
	for j := 0; j < m; j++ {
		e := t.cells[j]
		if want, got := t.ctrlByteFor(e), byte(t.ctrl[j>>3]>>(uint(j&7)*8)); got != want {
			return fmt.Errorf("core: CompactTable: ctrl[%d] = %#x, want %#x for cell %#x", j, got, want, e)
		}
		if e == Empty {
			continue
		}
		he := t.ops.Hash(e)
		h := int(he) & t.mask
		dist := (j - h) & t.mask
		for d := 1; d <= dist; d++ {
			k := (h + d - 1) & t.mask
			c := t.cells[k]
			if c == Empty {
				return fmt.Errorf("core: hole at %d inside probe path of %#x (home %d, at %d)", k, e, h, j)
			}
			if t.cmpPri(c, t.ops.Hash(c), e, he) < 0 {
				return fmt.Errorf("core: priority inversion: cell %d holds %#x with lower priority than %#x at %d (home %d)", k, c, e, j, h)
			}
		}
	}
	return nil
}

// Snapshot copies the raw cell array (quiescent use only); CtrlSnapshot
// exposes the control words. The detres oracle byte-compares both.
func (t *CompactTable[O]) Snapshot() []uint64 { return t.snapshot() }

// CtrlSnapshot copies the raw control words (quiescent use only).
//
//phasehash:serial quiescent use only: layout snapshots are taken between phases
func (t *CompactTable[O]) CtrlSnapshot() []uint64 {
	out := make([]uint64, len(t.ctrl))
	copy(out, t.ctrl)
	return out
}
