package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"phasehash/internal/obs"
	"phasehash/internal/parallel"
)

// This file holds the layer above the probe loops, written once for
// every layout: the staged block kernels (insertRange, findRange,
// deleteRange), the bulk drivers behind InsertAll / TryInsertAll /
// FindAll / DeleteAll, the unwind of inserts rejected on a full table
// (bulk and per-element alike), and the two-pass Elements pack. Each is
// generic over a layout — WordTable, CompactTable or PtrTable — which
// supplies only its stage pass, its three probe loops and its two
// insert errors. The tables declare every exported method themselves,
// the bulk and scan methods as one-line forwarders into this layer; the
// per-element Insert / Find / Delete call their own probe loop
// directly, which keeps a dictionary call off that path.
//
// The paper's entire evaluation is bulk phase work — "insert n keys,
// barrier, find n keys" — and the per-element API makes that shape pay
// an indirect closure call, a hash computation and a cold home-cell miss
// inside a serially dependent probe loop for every element. The block
// kernels remove all three:
//
//   - the one dictionary call per element is the layout's probe loop
//     itself, which takes the element's full hash and derives its own
//     home (no func value or adapter method between kernel and loop);
//   - blocks come from the persistent worker pool (internal/parallel),
//     so a phase costs a handful of channel sends, not goroutine spawns;
//   - probes are software-pipelined: each block works in chunks of
//     stageChunk elements, first hashing the whole chunk and touching
//     what each probe reads first (the layout's stage pass), then
//     probing the chunk against the already in-flight lines.
//
// The flat bulk methods run the kernels over the blocks of the whole
// slice; ShardedTable runs them over each shard's run of a radix
// partition. Either way a bulk call is an ordinary phase operation: it
// may overlap any other operation of the same phase.
//
// Determinism is untouched: a kernel performs exactly the operation set
// of the equivalent per-element loop, and the quiescent layout of the
// table depends only on that set (history independence), never on the
// blocking or staging. The detres oracle replays bulk and per-element
// paths against each other across its schedule grid to enforce this.

// layout is what one table layout supplies to the shared layer. E is
// its element type; its zero value is the empty cell.
type layout[E comparable] interface {
	// stage hashes elems into hs and touches what the probe loops read
	// first (find tells a lookup from a write). A zero element's hash
	// is stale.
	stage(elems []E, hs []uint64, find bool)
	// insertLoop, findLoop and deleteLoop are the layout's probe loops
	// (Figure 1), given the element's full hash h. They carry no
	// telemetry: each returns the cells it walked as steps. A full
	// insertLoop returns the element it carried off the array.
	insertLoop(v E, h uint64) (added, full bool, steps int, carried E)
	findLoop(v E, h uint64) (e E, ok bool, steps int)
	deleteLoop(v E, h uint64) (deleted bool, steps int)
	// zeroErr is the error for inserting the zero element
	// (ErrReservedKey or ErrNilValue), fullErr the ErrFull report.
	zeroErr() error
	fullErr() error
}

// stageChunk is the software-pipelining window of the bulk kernels: how
// many elements are hashed — with their home cells touched — before the
// window is probed. The stage pass issues its cache misses back to
// back, so the window bounds the memory-level parallelism offered to
// the core; 64 lines (4KB of cells) is far below L1 capacity, so staged
// lines are still resident when the probe pass reaches them.
const stageChunk = 64

// stageBufs holds the flat bulk calls' hash buffers, one taken per
// block. The kernels take their buffer from the caller because the
// stage pass is a call through the layout's dictionary, so escape
// analysis would move a buffer declared in a kernel to the heap, one
// allocation per block. ShardedTable instead hands each shard run a
// slot of the scratch it allocates once per call.
var stageBufs = sync.Pool{New: func() any { return new([stageChunk]uint64) }}

// homeless records an insert that swept a full table: it swapped orig
// in, and its displacement chain pushed carried off the array.
type homeless[E comparable] struct{ orig, carried E }

// unwind undoes inserts rejected on a full table, once the call that
// made them has finished: delete each orig, then re-insert the element
// its chain pushed out (into the cell the delete freed). By history
// independence, with no other operation on the table this restores
// exactly what it held before those inserts, in that set's canonical
// layout — a rejected insert changes nothing. A later rejected insert
// can push out an earlier one's orig, so pairs are undone latest first,
// and a pair whose orig is not stored waits for another pair's
// re-insert to put it back; pairs that never see their orig stored
// pushed each other's origs out and are dropped. The loops run without
// telemetry: an unwind is not traffic.
//
// When rejected inserts meet the table concurrently (per-element
// inserts on several goroutines, or the blocks of one flat bulk call
// while another call runs), each still reports ErrFull, but the undo's
// deletes then overlap other inserts: which keys stay stored, and the
// counts, are unspecified, and the table should be cleared before
// further use.
func unwind[E comparable, L layout[E]](t L, hs []homeless[E]) {
	// The layout hashes only in its stage pass; on this rare path a
	// one-element stage and its allocations cost nothing that matters.
	hash := func(e E) uint64 {
		h := make([]uint64, 1)
		t.stage([]E{e}, h, false)
		return h[0]
	}
	for len(hs) > 0 {
		var wait []homeless[E]
		for i := len(hs) - 1; i >= 0; i-- {
			if deleted, _ := t.deleteLoop(hs[i].orig, hash(hs[i].orig)); deleted {
				t.insertLoop(hs[i].carried, hash(hs[i].carried))
			} else {
				wait = append(wait, hs[i])
			}
		}
		if len(wait) == len(hs) {
			return
		}
		slices.Reverse(wait)
		hs = wait
	}
}

// insertRange is the insert block kernel: chunked two-pass probe loops
// over elems[lo:hi). The stage pass hashes a chunk into hs (at least
// min(stageChunk, hi-lo) long; see stageBufs) and warms its first
// lines; the probe pass then runs against warm lines. Like a TryInsert
// loop it attempts every element, returning how many grew the count and
// the first error met (zero element, saturation).
//
// The always-on counter core is fed one batched call per kernel call,
// a block or a shard run (ops and probe steps accumulate in locals),
// which keeps the per-element cost inside the 1% overhead gate budget;
// obs builds add each op to the insert histogram as it completes. Only
// completed ops are counted. Inserts rejected on a full table are
// returned in undo, for the caller to unwind.
func insertRange[E comparable, L layout[E]](t L, elems []E, hs []uint64, lo, hi int) (added int, undo []homeless[E], err error) {
	var coreOps, coreSteps uint64
	var zero E
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(elems[base:end], hs, false)
		for i := base; i < end; i++ {
			v := elems[i]
			if v == zero {
				if err == nil {
					err = t.zeroErr()
				}
				continue
			}
			h := hs[i-base]
			a, full, s, carried := t.insertLoop(v, h)
			if full {
				if err == nil {
					err = t.fullErr()
				}
				if carried != v {
					undo = append(undo, homeless[E]{v, carried})
				}
				continue
			}
			coreOps++
			coreSteps += uint64(s)
			if obs.Enabled {
				obs.RecordInsert(int(h), s)
			}
			if a {
				added++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreInsert(lo>>6, coreOps, coreSteps)
	}
	return added, undo, err
}

// findRange is the find block kernel over keys[lo:hi), staged like
// insertRange; it returns how many keys are present and, when dst is
// non-nil, stores each result at dst[i]. Every keys[i] is read before
// dst[i] is written, so dst may alias keys (an in-place lookup).
func findRange[E comparable, L layout[E]](t L, keys, dst []E, hs []uint64, lo, hi int) int {
	var coreSteps uint64
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(keys[base:end], hs, true)
		for i := base; i < end; i++ {
			h := hs[i-base]
			e, ok, s := t.findLoop(keys[i], h)
			coreSteps += uint64(s)
			if obs.Enabled {
				obs.RecordFind(int(h), s)
			}
			if ok {
				n++
			}
			if dst != nil {
				dst[i] = e
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreFind(lo>>6, uint64(hi-lo), coreSteps, uint64(n))
	}
	return n
}

// deleteRange is the delete block kernel over keys[lo:hi), staged like
// insertRange; it returns how many keys this call's deletes removed.
func deleteRange[E comparable, L layout[E]](t L, keys []E, hs []uint64, lo, hi int) int {
	var coreSteps uint64
	n := 0
	for base := lo; base < hi; base += stageChunk {
		end := min(base+stageChunk, hi)
		t.stage(keys[base:end], hs, false)
		for i := base; i < end; i++ {
			h := hs[i-base]
			d, s := t.deleteLoop(keys[i], h)
			coreSteps += uint64(s)
			if obs.Enabled {
				obs.RecordDelete(int(h), s)
			}
			if d {
				n++
			}
		}
	}
	if obs.CoreEnabled {
		obs.CoreDelete(lo>>6, uint64(hi-lo), coreSteps)
	}
	return n
}

// insertAll is InsertAll: tryInsertAll, panicking (after attempting
// every element) with the error of one failed insert.
func insertAll[E comparable, L layout[E]](t L, who string, elems []E) int {
	n, err := tryInsertAll(t, elems)
	if err != nil {
		panic("core: " + who + ": " + err.Error())
	}
	return n
}

// tryInsertAll is TryInsertAll: it runs insertRange over the blocks of
// elems and returns the summed count and the error of one failed
// insert, if any. The inserts rejected on a full table are unwound once
// every block is done.
func tryInsertAll[E comparable, L layout[E]](t L, elems []E) (int, error) {
	var r struct {
		added atomic.Int64
		mu    sync.Mutex
		err   error
		undo  []homeless[E]
	}
	parallel.ForBlocked(len(elems), 0, func(lo, hi int) {
		hs := stageBufs.Get().(*[stageChunk]uint64)
		a, undo, err := insertRange(t, elems, hs[:], lo, hi)
		stageBufs.Put(hs)
		if a != 0 {
			r.added.Add(int64(a))
		}
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.undo = append(r.undo, undo...)
			r.mu.Unlock()
		}
	})
	unwind(t, r.undo)
	return int(r.added.Load()), r.err
}

// findAll is FindAll: findRange over the blocks of keys. who names the
// table in the panic for a dst shorter than keys.
func findAll[E comparable, L layout[E]](t L, who string, keys, dst []E) int {
	checkFindDst(who, len(keys), dst)
	return sumBlocks(len(keys), func(lo, hi int) int {
		hs := stageBufs.Get().(*[stageChunk]uint64)
		defer stageBufs.Put(hs)
		return findRange(t, keys, dst, hs[:], lo, hi)
	})
}

// deleteAll is DeleteAll: deleteRange over the blocks of keys.
func deleteAll[E comparable, L layout[E]](t L, keys []E) int {
	return sumBlocks(len(keys), func(lo, hi int) int {
		hs := stageBufs.Get().(*[stageChunk]uint64)
		defer stageBufs.Put(hs)
		return deleteRange(t, keys, hs[:], lo, hi)
	})
}

// sumBlocks runs a kernel over the blocks of [0, n) and returns the
// summed count.
func sumBlocks(n int, kernel func(lo, hi int) int) int {
	var total atomic.Int64
	parallel.ForBlocked(n, 0, func(lo, hi int) {
		if c := kernel(lo, hi); c != 0 {
			total.Add(int64(c))
		}
	})
	return int(total.Load())
}

// checkFindDst panics, on the caller's goroutine and before any block
// runs, when a non-nil FindAll destination is shorter than the keys.
func checkFindDst[T any](who string, keys int, dst []T) {
	if dst != nil && len(dst) < keys {
		panic(fmt.Sprintf("core: %s.FindAll: dst has length %d, need %d", who, len(dst), keys))
	}
}

// packer is what the two-pass pack needs of a table: the count pass
// and the copy pass over a cell range [lo, hi).
type packer[E any] interface {
	countRange(lo, hi int) int
	packRange(lo, hi int, dst []E)
}

// elements is the deterministic Elements() of every table: a blocked
// count pass over its n cells (parallel.CountBlocks; blocks never
// straddle a multiple of seg, 0 for none), then a blocked copy pass
// (parallel.EmitBlocks) into a fresh slice in table order.
func elements[E any, P packer[E]](t P, n, seg int) []E {
	bs := parallel.CountBlocks(n, seg, t.countRange)
	out := make([]E, bs.Total())
	parallel.EmitBlocks(bs, out, t.packRange)
	return out
}

// elementsInto is elements packing into dst, returning the number
// packed. The contract is on dst's *length*, not its capacity: len(dst)
// >= the count is required, and a shorter dst panics after the count
// pass, before anything is written.
func elementsInto[E any, P packer[E]](t P, n, seg int, dst []E) int {
	bs := parallel.CountBlocks(n, seg, t.countRange)
	parallel.EmitBlocks(bs, dst, t.packRange)
	return bs.Total()
}

// countElements is the count pass of elements alone.
func countElements[E any, P packer[E]](t P, n, seg int) int {
	return parallel.CountBlocks(n, seg, t.countRange).Total()
}
