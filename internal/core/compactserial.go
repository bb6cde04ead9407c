package core

import "phasehash/internal/obs"

// This file holds CompactTable's sequential reference insert: the same
// algorithm as the phase-concurrent insert with plain loads and stores,
// for tables no other goroutine can reach. Tests rebuild a key set with
// it and byte-compare the result (cells and ctrl) against tables built
// by the concurrent paths — history independence says they must agree.

// setCtrlSerial writes slot p's ctrl byte with plain memory operations.
//
//phasehash:serial sequential reference: the table is reachable from one goroutine only, so no syncCtrl convergence is needed
func (t *CompactTable[O]) setCtrlSerial(p int, b byte) {
	s := p & t.mask
	w := s >> 3
	sh := uint(s&7) * 8
	t.ctrl[w] = t.ctrl[w]&^(uint64(0xFF)<<sh) | uint64(b)<<sh
}

// insertSerial is insertLoopFrom with plain memory operations, plus the
// ctrl byte write after every store that changes a slot's occupancy or
// fingerprint (claims and displacements; merges keep the key and hence
// the fingerprint). A rejected insert is unwound as the concurrent
// path's is.
//
//phasehash:serial sequential reference: the table is reachable from one goroutine only, and history independence makes the serial replay land in the same quiescent layout
func (t *CompactTable[O]) insertSerial(v uint64) (added, full bool) {
	var obsDisp uint64
	orig := v
	hv := t.ops.Hash(v)
	i := int(hv) & t.mask
	start := i
	limit := i + len(t.cells)
	for {
		if i >= limit {
			if obs.Enabled {
				obs.RecordInsert(start, uint64(i-start), 0, 0, obsDisp)
			}
			if v != orig {
				t.unwind([]homeless[uint64]{{orig, v}})
			}
			return false, true
		}
		c := t.cells[i&t.mask]
		switch {
		case c == Empty:
			t.cells[i&t.mask] = v
			t.setCtrlSerial(i, t.ctrlByteFor(v))
			if obs.Enabled {
				obs.RecordInsert(start, uint64(i-start), 0, 0, obsDisp)
			}
			return true, false
		default:
			hc := t.ops.Hash(c)
			cmp := t.cmpPri(c, hc, v, hv)
			switch {
			case cmp == 0:
				if merged := t.ops.Merge(c, v); merged != c {
					t.cells[i&t.mask] = merged
				}
				if obs.Enabled {
					obs.RecordInsert(start, uint64(i-start), 0, 0, obsDisp)
				}
				return false, false
			case cmp > 0: // cell has higher priority; keep probing
				i++
			default: // v has higher priority; swap in, carry c forward
				t.cells[i&t.mask] = v
				t.setCtrlSerial(i, t.ctrlByteFor(v))
				v, hv = c, hc
				i++
				if obs.Enabled {
					obsDisp++
				}
			}
		}
	}
}
