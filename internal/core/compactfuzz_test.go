package core

import (
	"encoding/binary"
	"testing"
)

// FuzzCtrlScan pins swarStop's contract against a byte-at-a-time oracle
// on arbitrary ctrl words and fingerprint patterns: the result must
// flag *exactly* the lanes whose byte is <= the pattern, at lane MSB
// positions, with no false positives in either direction — findLoop's
// miss exit fires on the first stop lane without re-verification
// against anything but the pattern byte itself, so exactness (not the
// usual "superset with re-check" SWAR contract) is what correctness
// rests on. Patterns are forced to have bit 7 set, as every full-slot
// fingerprint does (hashx.Fingerprint); that precondition is what makes
// the per-lane subtraction borrow-free (see swarStop).
func FuzzCtrlScan(f *testing.F) {
	f.Add(uint64(0), byte(0x80))
	f.Add(uint64(0), byte(0xFF))
	f.Add(^uint64(0), byte(0xFF))
	f.Add(^uint64(0), byte(0x80))
	f.Add(uint64(0x8080808080808080), byte(0x80)) // all-equal word
	f.Add(uint64(0x7F00811C00807F01), byte(0x81)) // mixed empty/tombstone/full
	f.Add(uint64(0x0101010101010101), byte(0x81))
	f.Add(uint64(0xFF80000000000080), byte(0x80)) // stops only in outer lanes
	f.Add(uint64(0x81828384858687FF), byte(0x84))
	f.Fuzz(func(t *testing.T, w uint64, b byte) {
		pat := b | 0x80
		got := swarStop(w, swarLSB*uint64(pat))
		if got&^swarMSB != 0 {
			t.Fatalf("swarStop(%#x, pat %#x) = %#x: flag outside lane MSBs", w, pat, got)
		}
		var laneBuf [8]byte
		binary.LittleEndian.PutUint64(laneBuf[:], w)
		want := uint64(0)
		for i, lb := range laneBuf {
			if lb <= pat {
				want |= 1 << (8*i + 7)
			}
		}
		if got != want {
			t.Fatalf("swarStop(%#x, pat %#x) = %#x, oracle %#x", w, pat, got, want)
		}
	})
}

// FuzzCompactTableOps drives a CompactTable through fuzzer-chosen
// phased scripts, cross-checking a model map each operation and, at
// every phase boundary, both CheckInvariant (ordering + ctrl = derived
// function of cells) and history independence: a fresh table fed the
// surviving elements in a completely different order (ascending, one
// serial pass — the reference schedule) must reach the byte-identical
// (cells, ctrl) layout, whatever insert/delete interleaving produced
// the original.
func FuzzCompactTableOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 2, 0xFF, 1, 2})
	f.Add([]byte{10, 10, 10, 0, 10})
	f.Add([]byte{7, 15, 23, 31, 39, 0, 7, 23, 0xFF, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		tab := NewCompactTable[SetOps](64)
		model := map[uint64]bool{}
		inserting := true
		checkPhaseEnd := func() {
			if err := tab.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if got := tab.Count(); got != len(model) {
				t.Fatalf("Count = %d, model %d", got, len(model))
			}
			ref := NewCompactTable[SetOps](64)
			for k := uint64(1); k <= 0xFF; k++ {
				if model[k] {
					ref.insertSerial(k)
				}
			}
			rc, gc := ref.Snapshot(), tab.Snapshot()
			for i := range rc {
				if gc[i] != rc[i] {
					t.Fatalf("cell %d = %#x, serial-rebuild reference %#x", i, gc[i], rc[i])
				}
			}
			rw, gw := ref.CtrlSnapshot(), tab.CtrlSnapshot()
			for i := range rw {
				if gw[i] != rw[i] {
					t.Fatalf("ctrl word %d = %#x, serial-rebuild reference %#x", i, gw[i], rw[i])
				}
			}
		}
		for _, op := range script {
			switch op {
			case 0, 0xFF: // phase boundary: flip insert/delete
				checkPhaseEnd()
				inserting = !inserting
			default:
				k := uint64(op) // 1..254, never Empty
				if inserting {
					if len(model) >= 60 {
						continue // stay clear of saturation panics
					}
					added := tab.Insert(k)
					if added == model[k] {
						t.Fatalf("Insert(%d) = %v with model[%d] = %v", k, added, k, model[k])
					}
					model[k] = true
				} else {
					deleted := tab.Delete(k)
					if deleted != model[k] {
						t.Fatalf("Delete(%d) = %v with model[%d] = %v", k, deleted, k, model[k])
					}
					delete(model, k)
				}
				if e, ok := tab.Find(k); ok != model[k] || (ok && e != k) {
					t.Fatalf("Find(%d) = %#x, %v with model[%d] = %v", k, e, ok, k, model[k])
				}
			}
		}
		checkPhaseEnd()
	})
}
