// Package tables implements the hash tables the paper benchmarks
// linearHash-D against, plus the sequential baselines:
//
//	linearHash-ND   phase-concurrent history-dependent linear probing
//	                (after Gao, Groote & Hesselink, with back-shifting
//	                deletes instead of tombstones)
//	cuckooHash      phase-concurrent two-choice cuckoo hashing with
//	                per-slot locks acquired in address order
//	chainedHash     Lea-style concurrent closed addressing (lock striping)
//	chainedHash-CR  chainedHash with the paper's contention-reducing
//	                find-before-lock optimization
//	hopscotchHash   Herlihy–Shavit–Tzafrir hopscotch hashing with
//	                per-segment locks and timestamps
//	hopscotchHash-PC hopscotchHash with the timestamp field removed,
//	                valid when operation types are phase-separated
//	serialHash-HI   sequential history-independent linear probing
//	serialHash-HD   sequential standard linear probing
//
// All tables share the element semantics of core.Ops, so benchmarks
// compare probe policies and synchronization, not hash functions. None of
// these tables is deterministic (that is the paper's point); the serial
// HI table is deterministic but sequential.
package tables

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/core"
	"phasehash/internal/parallel"
)

// Table is the operation set shared by every implementation, matching
// the paper's O = {insert, delete, find, elements}. Phase-concurrent
// implementations additionally require callers to separate operation
// types in time; fully-concurrent ones (chained, hopscotch) do not.
type Table interface {
	// Insert adds element e; duplicate keys are resolved per the table's
	// Ops. Reports whether the element count grew.
	Insert(e uint64) bool
	// Find returns the element stored under e's key.
	Find(e uint64) (uint64, bool)
	// Delete removes the element with e's key, reporting success.
	Delete(e uint64) bool
	// Elements returns the stored elements in a packed array. Only
	// linearHash-D (and the serial HI table) guarantee a deterministic
	// order.
	Elements() []uint64
	// Count returns the number of stored elements.
	Count() int
	// Size returns the capacity in cells (the bucket count for chained
	// tables, which have no fixed capacity).
	Size() int
}

// Contains reports whether a table holds e's key.
func Contains(t Table, e uint64) bool {
	_, ok := t.Find(e)
	return ok
}

// Bulk is the bulk-kernel extension of Table: whole-phase operations
// over element slices. linearHash-D, linearHash-D-sharded and
// linearHash-D-compact implement it with the staged kernels of
// internal/core; serialHash-HI and serialHash-HD implement it as plain
// sequential loops, so they stay one-threaded. Callers use InsertAll,
// FindAll and DeleteAll below, which also cover the kinds without it;
// Bulk and AsBulk stay exported for the benchmark module, which times
// a kernel call on its own.
type Bulk interface {
	// InsertAll inserts every element (insert phase), returning how many
	// grew the count.
	InsertAll(elems []uint64) int
	// FindAll looks up every key (read phase), returning how many are
	// present; when dst is non-nil, dst[i] receives the element stored
	// under keys[i] or 0.
	FindAll(keys, dst []uint64) int
	// DeleteAll deletes every key (delete phase), returning how many
	// were removed.
	DeleteAll(keys []uint64) int
}

// AsBulk returns t's bulk extension when it has one. Only the
// benchmark module calls it; this module's phases go through InsertAll,
// FindAll and DeleteAll.
func AsBulk(t Table) (Bulk, bool) {
	b, ok := t.(Bulk)
	return b, ok
}

// InsertAll runs one insert phase of every element through t and
// returns how many grew the count. A kind with Bulk runs its own
// kernel; every other kind runs the per-element parallel loop the paper
// describes for the baselines.
func InsertAll(t Table, elems []uint64) int {
	if b, ok := t.(Bulk); ok {
		return b.InsertAll(elems)
	}
	return sumBlocks(len(elems), func(lo, hi int) (n int) {
		for _, e := range elems[lo:hi] {
			if t.Insert(e) {
				n++
			}
		}
		return n
	})
}

// FindAll runs one find phase of every key through t and returns how
// many are present. When dst is non-nil (len(dst) >= len(keys)), dst[i]
// receives the element stored under keys[i], or 0 when it is absent.
func FindAll(t Table, keys, dst []uint64) int {
	if b, ok := t.(Bulk); ok {
		return b.FindAll(keys, dst)
	}
	return sumBlocks(len(keys), func(lo, hi int) (n int) {
		for i := lo; i < hi; i++ {
			e, ok := t.Find(keys[i])
			if ok {
				n++
			} else {
				e = core.Empty
			}
			if dst != nil {
				dst[i] = e
			}
		}
		return n
	})
}

// DeleteAll runs one delete phase of every key through t and returns
// how many were removed.
func DeleteAll(t Table, keys []uint64) int {
	if b, ok := t.(Bulk); ok {
		return b.DeleteAll(keys)
	}
	return sumBlocks(len(keys), func(lo, hi int) (n int) {
		for _, k := range keys[lo:hi] {
			if t.Delete(k) {
				n++
			}
		}
		return n
	})
}

// sumBlocks is the per-element phase loop: it runs count over the
// parallel blocks of [0, n) and sums what the blocks report.
func sumBlocks(n int, count func(lo, hi int) int) int {
	var total atomic.Int64
	parallel.ForBlocked(n, 0, func(lo, hi int) { total.Add(int64(count(lo, hi))) })
	return int(total.Load())
}

// Memory is the optional memory-accounting extension of Table: the
// bytes of backing-array memory the table holds. Implemented by the
// kinds whose footprint is a static function of their construction
// parameters (the linear-probing family); chained tables, whose
// footprint tracks the live set, do not implement it.
type Memory interface {
	// Bytes returns the backing-array footprint in bytes.
	Bytes() int
}

// AsMemory returns t's memory-accounting extension when it has one.
func AsMemory(t Table) (Memory, bool) {
	m, ok := t.(Memory)
	return m, ok
}

// Kind names a table implementation, using the paper's names.
type Kind string

// The table kinds of the paper's Section 6, plus this repo's
// radix-partitioned variant of the deterministic table.
const (
	LinearD Kind = "linearHash-D"
	// LinearDSharded is linearHash-D split into radix-selected shards
	// (core.ShardedTable); its bulk kernels radix-partition the keys and
	// run each shard's run on one worker with the flat table's staged
	// kernels, under the same phase contract as LinearD. The
	// constructor here uses core.DefaultShards, a function of the
	// capacity alone, so the layout is deterministic per capacity.
	LinearDSharded Kind = "linearHash-D-sharded"
	// LinearDCompact is linearHash-D with a separate byte-per-slot
	// control array (fingerprint + occupancy) scanned a word at a time
	// (core.CompactTable). It holds the same set as LinearD in its own
	// layout — clusters ordered by hash, then key, rather than by key —
	// which is deterministic (a function of the set and capacity) but
	// not LinearD's cell for cell, plus a deterministic ctrl array;
	// 9 bytes/slot of table memory instead of 8, in exchange for finds
	// that rarely touch the cell array, which keeps throughput at load
	// factors up to 0.9.
	LinearDCompact Kind = "linearHash-D-compact"
	LinearND       Kind = "linearHash-ND"
	Cuckoo         Kind = "cuckooHash"
	Chained        Kind = "chainedHash"
	ChainedCR      Kind = "chainedHash-CR"
	Hopscotch      Kind = "hopscotchHash"
	HopscotchPC    Kind = "hopscotchHash-PC"
	SerialHI       Kind = "serialHash-HI"
	SerialHD       Kind = "serialHash-HD"
)

// Kinds lists all table kinds in the paper's presentation order.
var Kinds = []Kind{
	SerialHI, SerialHD,
	LinearD, LinearDSharded, LinearDCompact, LinearND, Cuckoo,
	Chained, ChainedCR,
	Hopscotch, HopscotchPC,
}

// ParallelKinds lists the concurrent/phase-concurrent kinds.
var ParallelKinds = []Kind{
	LinearD, LinearDSharded, LinearDCompact, LinearND, Cuckoo,
	Chained, ChainedCR,
	Hopscotch, HopscotchPC,
}

// New constructs a table of the given kind with the given capacity and
// element semantics. Chained tables use size as the bucket count.
func New[O core.Ops](kind Kind, size int) (Table, error) {
	switch kind {
	case LinearD:
		return core.NewWordTable[O](size), nil
	case LinearDSharded:
		return core.NewShardedTable[O](size, 0), nil
	case LinearDCompact:
		return core.NewCompactTable[O](size), nil
	case LinearND:
		return NewLinearND[O](size), nil
	case Cuckoo:
		return NewCuckoo[O](size), nil
	case Chained:
		return NewChained[O](size, false), nil
	case ChainedCR:
		return NewChained[O](size, true), nil
	case Hopscotch:
		return NewHopscotch[O](size, true), nil
	case HopscotchPC:
		return NewHopscotch[O](size, false), nil
	case SerialHI:
		return NewSerialHITable[O](size), nil
	case SerialHD:
		return NewSerialHDTable[O](size), nil
	default:
		return nil, fmt.Errorf("tables: unknown kind %q", kind)
	}
}

// MustNew is New, panicking on unknown kinds (benchmark drivers).
func MustNew[O core.Ops](kind Kind, size int) Table {
	t, err := New[O](kind, size)
	if err != nil {
		panic(err)
	}
	return t
}

// SizeFor converts a desired element capacity into a table size for the
// kind: the next power of two >= capacity, doubled for cuckoo hashing
// (two-choice cuckoo without stashes degrades sharply past ~50% load;
// the paper likewise gives cuckoo twice the cells in its applications).
func SizeFor(kind Kind, capacity int) int {
	m := ceilPow2(capacity)
	if kind == Cuckoo {
		m *= 2
	}
	return m
}

// IsSerial reports whether the kind is one of the sequential baselines.
func (k Kind) IsSerial() bool { return k == SerialHI || k == SerialHD }

// IsDeterministic reports whether the table's quiescent layout is
// independent of operation order: it is a pure function of the
// element set and the capacity (for LinearDSharded, of the shard count
// too, which New derives from the capacity).
func (k Kind) IsDeterministic() bool {
	return k == LinearD || k == LinearDSharded || k == LinearDCompact || k == SerialHI
}
