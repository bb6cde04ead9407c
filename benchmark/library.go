package main

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"phasehash"
	"phasehash/internal/core"
	"phasehash/internal/hashx"
	"phasehash/internal/obs"
	"phasehash/internal/sequence"
)

// bulkCalls is the bulk API the public containers and their core tables
// share, so one script drives either layer.
type bulkCalls interface {
	InsertAll(keys []uint64) int
	ContainsAll(keys []uint64) int
	DeleteAll(keys []uint64) int
	Elements() []uint64
	Count() int
}

// bulkSet is a public container: Set, ShardedSet, CompactSet or GrowSet.
// Tests substitute a faulty one through config.wrap.
type bulkSet interface {
	bulkCalls
	Capacity() int
}

const (
	minReps = 3 // measured repetitions per run, however long they take
	// coreReps bounds the repetitions of the direct core-table probe; it
	// stops after two once it has taken a fifth of the run's budget.
	coreReps = 3
)

// timeSetUps builds a container at least 5 times, and small ones up to
// 50 times or until the set-ups add up to 200ms, each time on memory
// freshly returned to the OS so first-touch page faults are charged to
// set-up. It returns the last container and the set-up times in seconds;
// setup_s is their median.
func timeSetUps[T any](build func() T) (T, []float64) {
	var last T
	var xs []float64
	var total time.Duration
	for len(xs) < 5 || (len(xs) < 50 && total < 200*time.Millisecond) {
		var zero T
		last = zero
		debug.FreeOSMemory()
		t0 := time.Now()
		last = build()
		d := time.Since(t0)
		total += d
		xs = append(xs, d.Seconds())
	}
	return last, xs
}

func (p *pass) wrap(s bulkSet) bulkSet {
	if p.cfg.wrap != nil {
		return p.cfg.wrap(s)
	}
	return s
}

// keyRef is the reference set of an input whose keys lie in [1, max],
// built once per input outside any timing: a bitmap, so membership and
// set comparison cost O(1) per key.
type keyRef struct {
	bits, seen []uint64
	max        uint64
	distinct   int
}

func newKeyRef(keys []uint64, max uint64) *keyRef {
	r := &keyRef{bits: make([]uint64, max/64+1), seen: make([]uint64, max/64+1), max: max}
	for _, k := range keys {
		r.bits[k/64] |= 1 << (k % 64)
	}
	for _, w := range r.bits {
		r.distinct += bits.OnesCount64(w)
	}
	return r
}

func (r *keyRef) has(k uint64) bool { return k <= r.max && r.bits[k/64]&(1<<(k%64)) != 0 }

func (r *keyRef) count(probes []uint64) int {
	n := 0
	for _, k := range probes {
		if r.has(k) {
			n++
		}
	}
	return n
}

// diff returns how many keys elems is missing, holds wrongly or repeats,
// relative to the reference set.
func (r *keyRef) diff(elems []uint64) int {
	clear(r.seen)
	bad, found := 0, 0
	for _, e := range elems {
		if !r.has(e) {
			bad++
			continue
		}
		w, b := e/64, uint64(1)<<(e%64)
		if r.seen[w]&b != 0 {
			bad++
			continue
		}
		r.seen[w] |= b
		found++
	}
	return bad + r.distinct - found
}

// halfHits returns one probe per key: even positions repeat the key (a
// hit), odd positions draw from (max, 2max], where no key lies (a miss).
func halfHits(keys []uint64, max, seed uint64) []uint64 {
	probes := make([]uint64, len(keys))
	for i, k := range keys {
		if i%2 == 0 {
			probes[i] = k
		} else {
			probes[i] = max + 1 + hashx.At(seed^0x9e3779b97f4a7c15, i)%max
		}
	}
	return probes
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// script is the repetition table1-flat, dups-sharded and stream-grow
// share: insert the keys in calls of chunk keys, probe them (half hits),
// list the elements, delete the keys.
type script struct {
	api, core string // container and core type names, for spans
	keys      []uint64
	probes    []uint64
	chunk     int
	ref       *keyRef
	wantHits  int
	// exactAdded is false for GrowSet, whose InsertAll is known to count
	// a key still in the old table during a migration as added; the
	// overcount is reported as core.added_error, not as failed operations.
	exactAdded bool
	// setUp builds the container and faults its memory in. With reuse
	// one container serves every repetition; otherwise each repetition
	// builds its own, outside the timing.
	setUp func() bulkSet
	reuse bool
	// coreSetUp builds the core table behind the container, for the
	// per-layer probe that bypasses the public facade.
	coreSetUp func() bulkCalls
}

// repTimes is one repetition's phase times and results.
type repTimes struct {
	insert, find, elements, delete time.Duration
	elems, addedErr                int
}

func (r repTimes) total() time.Duration { return r.insert + r.find + r.elements + r.delete }

// rep runs one repetition on set, recording spans named layer+"."+call,
// and checks every result; first holds the first repetition's Elements,
// which every later repetition must reproduce byte for byte.
func (s *script) rep(p *pass, set bulkCalls, layer string, first *[]uint64) repTimes {
	tr := p.tr
	id := tr.begin("bench:repetition", 0, 0)
	var r repTimes
	added := 0
	for lo := 0; lo < len(s.keys); lo += s.chunk {
		chunk := s.keys[lo:min(lo+s.chunk, len(s.keys))]
		r.insert += tr.call(layer+".InsertAll", id, len(chunk), func() { added += set.InsertAll(chunk) })
	}
	var hits, deleted int
	var elems []uint64
	r.find = tr.call(layer+".ContainsAll", id, len(s.probes), func() { hits = set.ContainsAll(s.probes) })
	r.elements = tr.call(layer+".Elements", id, s.ref.distinct, func() { elems = set.Elements() })
	r.delete = tr.call(layer+".DeleteAll", id, len(s.keys), func() { deleted = set.DeleteAll(s.keys) })
	tr.end(id)

	d := s.ref.distinct
	p.attempt(2*len(s.keys) + len(s.probes) + d)
	r.elems, r.addedErr = len(elems), added-d
	if s.exactAdded {
		p.expect(added == d, absInt(added-d), "%s: InsertAll added %d keys, want %d", layer, added, d)
	}
	p.expect(hits == s.wantHits, absInt(hits-s.wantHits), "%s: ContainsAll found %d keys, want %d", layer, hits, s.wantHits)
	bad := s.ref.diff(elems)
	p.expect(bad == 0, bad, "%s: Elements differs from the reference set in %d keys", layer, bad)
	if *first == nil {
		*first = elems
	} else {
		p.expect(slices.Equal(elems, *first), 1, "%s: Elements order differs between repetitions", layer)
	}
	p.expect(deleted == d, absInt(deleted-d), "%s: DeleteAll removed %d keys, want %d", layer, deleted, d)
	left := set.Count()
	p.expect(left == 0, left, "%s: Count() = %d after deleting every key", layer, left)
	return r
}

func runScript(p *pass, s script) error {
	s.wantHits = s.ref.count(s.probes)
	container, setups := timeSetUps(s.setUp)
	set := p.wrap(container)
	var first []uint64

	// The warm-up repetition is checked but not measured.
	warm := s.rep(p, set, "api:"+s.api, &first)
	capacity := set.Capacity()
	p.note("warmup.insert_mops", float64(len(s.keys))/warm.insert.Seconds()/1e6)

	var reps []repTimes
	b := bracketed{r: p.reference()}
	before := obs.CoreSnapshot()
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < p.cfg.budget() {
		if !s.reuse {
			set = p.wrap(s.setUp())
		}
		runtime.GC() // every repetition starts from the same heap state
		b.start()
		p.traceRep(len(reps))
		r := s.rep(p, set, "api:"+s.api, &first)
		b.done(r.total().Seconds() * 1e3)
		reps = append(reps, r)
	}
	counters := obs.CoreSnapshot().Sub(before)

	var ins, fnd, elm, del []float64
	ops := make([]float64, len(reps))
	for i, r := range reps {
		ops[i] = float64(2*len(s.keys) + len(s.probes) + r.elems)
		ins = append(ins, float64(len(s.keys))/r.insert.Seconds()/1e6)
		fnd = append(fnd, float64(len(s.probes))/r.find.Seconds()/1e6)
		elm = append(elm, float64(r.elems)/r.elements.Seconds()/1e6)
		del = append(del, float64(len(s.keys))/r.delete.Seconds()/1e6)
	}
	p.addMedian("setup_s", setups)
	p.addRepMetrics(&b, ops, 1)
	p.add("bytes_per_key", 8*float64(capacity)/float64(s.ref.distinct), 1)
	p.note("insert_mops", median(ins))
	p.note("find_mops", median(fnd))
	p.note("elements_mops", median(elm))
	p.note("delete_mops", median(del))
	p.note("keys", float64(len(s.keys)))
	p.note("distinct", float64(s.ref.distinct))
	p.note("cells", float64(capacity))
	p.note("added_error", float64(reps[0].addedErr))

	p.traceOverhead(b.reps)
	if p.tracer == nil {
		return nil
	}
	shards := 1
	if sharded, ok := container.(interface{ NumShards() int }); ok {
		shards = sharded.NumShards()
	}
	set, container = nil, nil
	debug.FreeOSMemory()
	var coreFirst []uint64
	var tbl bulkCalls
	probeStart := time.Now()
	p.referenceSpan()
	for i := 0; i < coreReps && (i < 2 || time.Since(probeStart) < p.cfg.budget()/5); i++ {
		if tbl == nil || !s.reuse {
			tbl = s.coreSetUp()
		}
		s.rep(p, tbl, "core:"+s.core, &coreFirst)
		p.referenceSpan()
	}
	p.expect(slices.Equal(coreFirst, first), 1, "core:%s: Elements differs from the container's", s.core)
	return layerMetrics(p, layerInputs{
		core:     s.core,
		batch:    s.keys[:s.chunk],
		shards:   shards,
		cells:    capacity,
		addedErr: float64(reps[0].addedErr),
		counters: counters,
		unitMs:   b.reps,
	})
}

func runTable1Flat(p *pass) error {
	cells := p.cfg.size(1<<25, 1<<12)
	n := cells / 4
	keys := sequence.RandomKeys(n, p.cfg.seed)
	return runScript(p, script{
		api: "Set", core: "WordTable",
		keys: keys, probes: halfHits(keys, uint64(n), p.cfg.seed), chunk: n,
		ref: newKeyRef(keys, uint64(n)), exactAdded: true, reuse: true,
		setUp: func() bulkSet { s := phasehash.NewSet(cells); s.Clear(); return s },
		coreSetUp: func() bulkCalls {
			t := core.NewWordTable[core.SetOps](cells)
			t.Clear()
			return t
		},
	})
}

func runDupsSharded(p *pass) error {
	cells := p.cfg.size(1<<25, 1<<12)
	n := cells / 4
	keys := sequence.ExptKeys(n, p.cfg.seed)
	var shards int
	return runScript(p, script{
		api: "ShardedSet", core: "ShardedTable",
		keys: keys, probes: halfHits(keys, uint64(n), p.cfg.seed), chunk: n,
		ref: newKeyRef(keys, uint64(n)), exactAdded: true, reuse: true,
		setUp: func() bulkSet {
			s := phasehash.NewShardedSet(cells, 0)
			s.Clear()
			shards = s.NumShards()
			return s
		},
		coreSetUp: func() bulkCalls {
			t := core.NewShardedTable[core.SetOps](cells, shards)
			t.Clear()
			return t
		},
	})
}

func runStreamGrow(p *pass) error {
	n := p.cfg.size(1<<22, 1<<12)
	initial := p.cfg.size(1<<16, 64)
	keys := sequence.ExptKeys(n, p.cfg.seed)
	return runScript(p, script{
		api: "GrowSet", core: "GrowTable",
		keys: keys, probes: halfHits(keys, uint64(n), p.cfg.seed), chunk: n / 4,
		ref:       newKeyRef(keys, uint64(n)),
		setUp:     func() bulkSet { return phasehash.NewGrowSet(initial) },
		coreSetUp: func() bulkCalls { return core.NewGrowTable[core.SetOps](initial) },
	})
}

// runResidentCompact keeps a CompactSet at load 0.85 and streams rounds
// through it: insert batch fresh keys, six finds of batch keys (half
// hits), delete the batch oldest keys, and every 64th round list the
// elements.
func runResidentCompact(p *pass) error {
	slots := p.cfg.size(1<<17, 1<<10)
	live := slots * 85 / 100
	batch := min(1024, live/16)
	// A repetition is 128 rounds, listing the elements every 64.
	const finds, roundsPerRep, elemsEvery = 6, 128, 64
	base := hashx.At(p.cfg.seed, 0) >> 3
	key := func(j int) uint64 { return hashx.Mix64(base + uint64(j)) }
	// Miss keys come from a disjoint stretch of the same bijection, so
	// they can never equal a live key.
	miss := func(j int) uint64 { return hashx.Mix64(base + 1<<62 + uint64(j)) }

	set, setups := timeSetUps(func() *phasehash.CompactSet {
		s := phasehash.NewCompactSet(live)
		s.Clear()
		return s
	})
	bs := p.wrap(set)
	window := make([]uint64, live)
	for i := range window {
		window[i] = key(i)
	}
	p.attempt(live)
	added := bs.InsertAll(window)
	p.expect(added == live, absInt(added-live), "prefill added %d keys, want %d", added, live)
	bytesPerKey := float64(set.Bytes()) / float64(bs.Count())
	sum := newMultisetHash(window)

	r := &rounds{p: p, bs: bs, layer: "api:CompactSet", key: key, miss: miss, batch: batch, finds: finds,
		lo: 0, hi: live, sum: sum, live: live, elemsEvery: elemsEvery}
	r.run(roundsPerRep, nil) // warm-up
	before := obs.CoreSnapshot()
	start := time.Now()
	var roundMs, ops []float64
	var ins, fnd, del, elm time.Duration
	var elemCount int
	b := bracketed{r: p.reference()}
	for len(ops) < minReps || time.Since(start) < p.cfg.budget() {
		runtime.GC() // every repetition starts from the same heap state
		b.start()
		p.traceRep(len(ops))
		t := r.run(roundsPerRep, &roundMs)
		b.done(t.total().Seconds() * 1e3)
		ins, fnd, del, elm = ins+t.insert, fnd+t.find, del+t.delete, elm+t.elements
		elemCount += t.elems
		ops = append(ops, float64(roundsPerRep*batch*(2+finds)+t.elems))
	}
	counters := obs.CoreSnapshot().Sub(before)
	r.checkCanonical()

	p.addMedian("setup_s", setups)
	p.addRepMetrics(&b, ops, roundsPerRep)
	p.add("bytes_per_key", bytesPerKey, 1)
	nRounds := float64(len(roundMs))
	p.note("insert_mops", nRounds*float64(batch)/ins.Seconds()/1e6)
	p.note("find_mops", nRounds*float64(batch*finds)/fnd.Seconds()/1e6)
	p.note("delete_mops", nRounds*float64(batch)/del.Seconds()/1e6)
	p.note("elements_mops", float64(elemCount)/elm.Seconds()/1e6)
	p.note("cells", float64(set.Capacity()))
	p.note("live", float64(live))
	p.note("batch", float64(batch))

	p.traceOverhead(b.reps)
	if p.tracer == nil {
		return nil
	}
	tbl := core.NewCompactTable[core.SetOps](set.Capacity())
	tbl.Clear()
	p.attempt(live)
	added = tbl.InsertAll(r.windowKeys())
	p.expect(added == live, absInt(added-live), "core prefill added %d keys, want %d", added, live)
	cr := &rounds{p: p, bs: tbl, layer: "core:CompactTable", key: key, miss: miss, batch: batch, finds: finds,
		lo: r.lo, hi: r.hi, sum: r.sum, live: live, elemsEvery: elemsEvery}
	p.referenceSpan()
	for probeStart := time.Now(); cr.n < 2*roundsPerRep || time.Since(probeStart) < p.cfg.budget()/10; {
		cr.run(elemsEvery, nil)
		p.referenceSpan()
	}
	return layerMetrics(p, layerInputs{
		core:     "CompactTable",
		batch:    r.windowKeys()[:batch],
		shards:   1,
		cells:    set.Capacity(),
		counters: counters,
		unitMs:   roundMs,
	})
}

// rounds drives resident-compact's sliding window: live keys are
// key(lo) .. key(hi-1).
type rounds struct {
	p          *pass
	bs         bulkCalls
	layer      string
	key, miss  func(j int) uint64
	batch      int
	finds      int
	lo, hi     int
	live       int
	elemsEvery int
	sum        multisetHash
	n          int // rounds run
	ins, del   []uint64
	probes     [][]uint64
	hits       []int
}

// run runs n rounds, appending each round's time in ms to roundMs when
// it is non-nil, and returns the summed phase times.
func (r *rounds) run(n int, roundMs *[]float64) repTimes {
	if r.ins == nil {
		r.ins, r.del = make([]uint64, r.batch), make([]uint64, r.batch)
		r.probes = make([][]uint64, r.finds)
		r.hits = make([]int, 0, r.finds)
		for c := range r.probes {
			r.probes[c] = make([]uint64, r.batch)
		}
	}
	p, tr := r.p, r.p.tr
	var t repTimes
	for i := 0; i < n; i++ {
		for j := range r.ins {
			r.ins[j] = r.key(r.hi + j)
			r.del[j] = r.key(r.lo + j)
		}
		span := uint64(r.hi + r.batch - r.lo)
		for c, probe := range r.probes {
			for j := range probe {
				at := (r.n*r.finds+c)*r.batch + j
				if j%2 == 0 {
					probe[j] = r.key(r.lo + int(hashx.At(p.cfg.seed+1, at)%span))
				} else {
					probe[j] = r.miss(at)
				}
			}
		}
		id := tr.begin("bench:round", 0, 0)
		var added, deleted int
		hits := r.hits[:0]
		var elems []uint64
		t0 := time.Now()
		t.insert += tr.call(r.layer+".InsertAll", id, r.batch, func() { added = r.bs.InsertAll(r.ins) })
		for _, probe := range r.probes {
			t.find += tr.call(r.layer+".ContainsAll", id, r.batch, func() { hits = append(hits, r.bs.ContainsAll(probe)) })
		}
		t.delete += tr.call(r.layer+".DeleteAll", id, r.batch, func() { deleted = r.bs.DeleteAll(r.del) })
		if (r.n+1)%r.elemsEvery == 0 {
			t.elements += tr.call(r.layer+".Elements", id, r.live, func() { elems = r.bs.Elements() })
		}
		dt := time.Since(t0)
		tr.end(id)
		if roundMs != nil {
			*roundMs = append(*roundMs, dt.Seconds()*1e3)
		}

		p.attempt(r.batch * (2 + r.finds))
		p.expect(added == r.batch, absInt(added-r.batch), "%s: InsertAll added %d fresh keys, want %d", r.layer, added, r.batch)
		for _, h := range hits {
			p.expect(h == r.batch/2, absInt(h-r.batch/2), "%s: ContainsAll found %d keys, want %d", r.layer, h, r.batch/2)
		}
		p.expect(deleted == r.batch, absInt(deleted-r.batch), "%s: DeleteAll removed %d keys, want %d", r.layer, deleted, r.batch)
		r.sum.add(r.ins)
		r.sum.remove(r.del)
		r.lo += r.batch
		r.hi += r.batch
		r.n++
		if elems != nil {
			p.attempt(len(elems))
			t.elems += len(elems)
			got := newMultisetHash(elems)
			p.expect(len(elems) == r.live && got == r.sum, max(absInt(len(elems)-r.live), 1),
				"%s: Elements returned %d keys that differ from the %d live ones", r.layer, len(elems), r.live)
		}
	}
	return t
}

func (r *rounds) windowKeys() []uint64 {
	keys := make([]uint64, 0, r.hi-r.lo)
	for j := r.lo; j < r.hi; j++ {
		keys = append(keys, r.key(j))
	}
	return keys
}

// checkCanonical checks history independence: after all the rounds'
// inserts and deletes, Elements must be byte-identical to that of a
// fresh CompactSet holding only the live keys.
func (r *rounds) checkCanonical() {
	fresh := phasehash.NewCompactSet(r.live)
	fresh.InsertAll(r.windowKeys())
	want := fresh.Elements()
	got := r.bs.Elements()
	r.p.attempt(len(got))
	r.p.expect(slices.Equal(got, want), 1, "%s: Elements is not the layout a fresh set builds from the same keys", r.layer)
}

// multisetHash summarises a key multiset as two sums of independent key
// hashes: equal multisets give equal sums, and a missing, foreign or
// repeated key changes them except with negligible probability.
type multisetHash struct{ a, b uint64 }

func newMultisetHash(keys []uint64) multisetHash {
	var h multisetHash
	h.add(keys)
	return h
}

func (h *multisetHash) add(keys []uint64) {
	for _, k := range keys {
		h.a += hashx.Mix64(k ^ 0x5bd1e9955bd1e995)
		h.b += hashx.Mix64(k + 0x2545f4914f6cdd1d)
	}
}

func (h *multisetHash) remove(keys []uint64) {
	for _, k := range keys {
		h.a -= hashx.Mix64(k ^ 0x5bd1e9955bd1e995)
		h.b -= hashx.Mix64(k + 0x2545f4914f6cdd1d)
	}
}
