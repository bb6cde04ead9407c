// Package bench implements the paper's experiments: each exported
// function regenerates one table or figure of Section 6 (the command
// line drivers in cmd/ and the testing.B benchmarks at the repository
// root are thin wrappers around this package). Timings follow the
// paper's methodology: input generation and table pre-filling are
// excluded; only the operation phase under test is measured.
package bench

import (
	"sync/atomic"
	"time"

	"phasehash/internal/core"
	"phasehash/internal/obs"
	"phasehash/internal/parallel"
	"phasehash/internal/sequence"
	"phasehash/internal/tables"
)

// Op names a hash-table operation benchmark, matching the paper's Table
// 1 sub-tables.
type Op string

// The operations of Table 1 (a)-(f).
const (
	OpInsert         Op = "insert"
	OpFindRandom     Op = "find-random"
	OpFindInserted   Op = "find-inserted"
	OpDeleteRandom   Op = "delete-random"
	OpDeleteInserted Op = "delete-inserted"
	OpElements       Op = "elements"
)

// Ops lists Table 1's operations in order.
var Ops = []Op{OpInsert, OpFindRandom, OpFindInserted, OpDeleteRandom, OpDeleteInserted, OpElements}

// opsForDist picks the element semantics matching the distribution: set
// semantics for key-only inputs, min-combine pairs for key-value inputs
// (the paper's deterministic priority-on-values rule).
func newTableForDist(kind tables.Kind, d sequence.Distribution, size int) tables.Table {
	if d.IsPair() {
		return tables.MustNew[core.PairMinOps](kind, size)
	}
	return tables.MustNew[core.SetOps](kind, size)
}

// BytesPerElem reports the backing-array bytes per stored element for
// a table kind at Table 1's configuration: a table of tableSize cells
// holding n elements. Kinds that do not implement tables.Memory
// report 0 (printed as "-" by phbench -mem).
func BytesPerElem(kind tables.Kind, n, tableSize int) float64 {
	if n <= 0 {
		return 0
	}
	tab := tables.MustNew[core.SetOps](kind, tableSize)
	m, ok := tables.AsMemory(tab)
	if !ok {
		return 0
	}
	return float64(m.Bytes()) / float64(n)
}

// timedPhase measures f and, in -tags obs builds, brackets it with a
// phase-timeline span (and runtime/trace task) named name — so a
// `go tool trace` of a benchmark run shows each measured phase as a
// user task and Stats().Spans carries the phase timeline.
func timedPhase(name string, f func()) time.Duration {
	var sp *obs.ActiveSpan
	if obs.Enabled {
		sp = obs.PhaseStart(name)
	}
	start := time.Now()
	f()
	d := time.Since(start)
	if obs.Enabled {
		obs.PhaseEnd(sp)
	}
	return d
}

// Table1Cell measures one cell of Table 1: n operations of op with the
// given table kind and distribution, on a table of tableSize cells.
// Returns the measured wall time of the operation phase only.
func Table1Cell(kind tables.Kind, d sequence.Distribution, op Op, n, tableSize int) time.Duration {
	elems := sequence.WordElements(d, n, 42)
	tab := newTableForDist(kind, d, tableSize)
	switch op {
	case OpInsert:
		return timedPhase("bench:insert", func() { tables.InsertAll(tab, elems) })
	case OpFindRandom, OpFindInserted, OpDeleteRandom, OpDeleteInserted:
		// Pre-fill with the inserted set (untimed), then operate on
		// either the same elements or a fresh draw from the
		// distribution.
		tables.InsertAll(tab, elems)
		probe := elems
		if op == OpFindRandom || op == OpDeleteRandom {
			probe = sequence.WordElements(d, n, 43)
		}
		switch op {
		case OpFindRandom, OpFindInserted:
			return timedPhase("bench:find", func() { tables.FindAll(tab, probe, nil) })
		default:
			return timedPhase("bench:delete", func() { tables.DeleteAll(tab, probe) })
		}
	case OpElements:
		tables.InsertAll(tab, elems)
		return timedPhase("bench:elements", func() { tab.Elements() })
	default:
		panic("bench: unknown op " + string(op))
	}
}

// Table1CellStrings measures linearHash-D on *true string elements*
// through the pointer table — the paper's actual trigramSeq-pairInt
// representation ("a pointer to a structure with a pointer to a
// string"). The word-element tables approximate this input with hashed
// keys (see DESIGN.md); this cell quantifies the indirection cost the
// approximation hides. Only insert, find and delete phases apply.
func Table1CellStrings(op Op, n, tableSize int) time.Duration {
	pairs := sequence.TrigramPairs(n, 42)
	tab := core.NewPtrTable[sequence.StrPair, sequence.StrPairOps](tableSize)
	switch op {
	case OpInsert:
		start := time.Now()
		tab.InsertAll(pairs)
		return time.Since(start)
	case OpFindRandom, OpFindInserted, OpDeleteRandom, OpDeleteInserted:
		tab.InsertAll(pairs)
		probe := pairs
		if op == OpFindRandom || op == OpDeleteRandom {
			probe = sequence.TrigramPairs(n, 43)
		}
		start := time.Now()
		if op == OpFindRandom || op == OpFindInserted {
			tab.FindAll(probe, nil)
		} else {
			tab.DeleteAll(probe)
		}
		return time.Since(start)
	case OpElements:
		tab.InsertAll(pairs)
		start := time.Now()
		tab.Elements()
		return time.Since(start)
	default:
		panic("bench: unknown op " + string(op))
	}
}

// Table2Row names the memory-operation baselines of Table 2.
type Table2Row string

// Table 2's rows.
const (
	RandomWrite      Table2Row = "random write"
	ConditionalWrite Table2Row = "conditional random write"
	HashInsert       Table2Row = "hash table insertion"
)

// Table2Rows lists the rows in paper order.
var Table2Rows = []Table2Row{RandomWrite, ConditionalWrite, HashInsert}

// Table2Cell measures n operations of the given row with parallel==true
// for the (40h) column or sequential for the (1) column. The scatter
// array and hash table both have tableSize slots (the paper's load-1/3
// configuration uses tableSize ≈ 3n).
func Table2Cell(row Table2Row, n, tableSize int, par bool) time.Duration {
	keys := sequence.RandomKeys(n, 7)
	size := ceilPow2(tableSize)
	mask := uint64(size - 1)
	run := func(f func(i int)) time.Duration {
		start := time.Now()
		if par {
			parallel.ForBlocked(n, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					f(i)
				}
			})
		} else {
			for i := 0; i < n; i++ {
				f(i)
			}
		}
		return time.Since(start)
	}
	switch row {
	case RandomWrite:
		arr := make([]uint64, size)
		if raceEnabled && par {
			return run(func(i int) {
				atomic.StoreUint64(&arr[(keys[i]*0x9e3779b97f4a7c15)&mask], keys[i])
			})
		}
		// Concurrent plain stores to random cells — racy by design; this
		// is the paper's scatter baseline.
		return run(func(i int) {
			arr[(keys[i]*0x9e3779b97f4a7c15)&mask] = keys[i]
		})
	case ConditionalWrite:
		arr := make([]uint64, size)
		if raceEnabled && par {
			return run(func(i int) {
				j := (keys[i] * 0x9e3779b97f4a7c15) & mask
				if atomic.LoadUint64(&arr[j]) == 0 {
					atomic.StoreUint64(&arr[j], keys[i])
				}
			})
		}
		return run(func(i int) {
			j := (keys[i] * 0x9e3779b97f4a7c15) & mask
			if arr[j] == 0 {
				arr[j] = keys[i]
			}
		})
	case HashInsert:
		tab := core.NewWordTable[core.SetOps](size)
		return run(func(i int) { tab.Insert(keys[i]) })
	default:
		panic("bench: unknown Table 2 row")
	}
}

func ceilPow2(x int) int {
	m := 1
	for m < x {
		m <<= 1
	}
	return m
}

// WithWorkers runs f with the worker count temporarily set to p (the
// thread-sweep primitive behind Figure 4).
func WithWorkers(p int, f func() time.Duration) time.Duration {
	old := parallel.SetNumWorkers(p)
	defer parallel.SetNumWorkers(old)
	return f()
}

// Figure4Point measures linearHash-D's op time with p workers and the
// serial HI baseline, returning (parallel time, serial time); speedup is
// serial/parallel — one point of Figure 4's curves.
func Figure4Point(d sequence.Distribution, op Op, n, tableSize, p int) (time.Duration, time.Duration) {
	par := WithWorkers(p, func() time.Duration {
		return Table1Cell(tables.LinearD, d, op, n, tableSize)
	})
	ser := Table1Cell(tables.SerialHI, d, op, n, tableSize)
	return par, ser
}

// Figure5Point measures linearHash-D's per-operation time at a given
// load factor: the table (tableSize cells) is pre-filled to load, then n
// operations of op are timed. This regenerates Figure 5's curves.
func Figure5Point(op Op, load float64, n, tableSize int) time.Duration {
	size := ceilPow2(tableSize)
	fill := int(load * float64(size))
	if fill >= size {
		fill = size - 1
	}
	if op == OpInsert {
		// Keep the measured inserts from moving the load appreciably
		// (<= 2% of the table), so the point reflects the nominal load.
		if cap := size / 50; n > cap {
			n = cap
		}
		if n > size-fill-1 {
			n = size - fill - 1
		}
	}
	if n < 1 {
		n = 1
	}
	tab := core.NewWordTable[core.SetOps](size)
	// Pre-fill with distinct keys (dense range hashed by the table).
	parallel.ForBlocked(fill, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tab.Insert(uint64(i) + 1)
		}
	})
	// Operate on fresh keys (inserts) or a mix of present keys.
	switch op {
	case OpInsert:
		keys := make([]uint64, n)
		parallel.For(n, func(i int) { keys[i] = uint64(fill+i) + 1 })
		start := time.Now()
		parallel.ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tab.Insert(keys[i])
			}
		})
		return time.Since(start)
	case OpFindRandom:
		keys := sequence.RandomKeys(n, 9)
		start := time.Now()
		parallel.ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tab.Find(keys[i]%uint64(fill+n) + 1)
			}
		})
		return time.Since(start)
	case OpDeleteInserted:
		del := n
		if del > fill {
			del = fill
		}
		keys := make([]uint64, del)
		parallel.For(del, func(i int) { keys[i] = uint64(i)*uint64(fill/(del+1)+1)%uint64(fill) + 1 })
		start := time.Now()
		parallel.ForBlocked(del, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tab.Delete(keys[i])
			}
		})
		return time.Since(start)
	case OpElements:
		start := time.Now()
		tab.Elements()
		return time.Since(start)
	default:
		panic("bench: Figure 5 supports insert/find-random/delete-inserted/elements")
	}
}
