// Package epoch turns the phase-concurrency contract from a usage
// constraint into a scheduling policy: an epoch server accepts a
// firehose of mixed operations (Insert / Delete / Find / Elements) from
// any number of concurrent clients, buffers them into per-phase
// batches, and flushes each batch — an *epoch* — through the sharded
// bulk kernels (core.ShardedTable). Callers get async
// futures; the table only ever sees legal phase-pure traffic.
//
// Within one epoch the phases run in a fixed order: insert, then
// delete, then find/elements. Reads therefore observe every write
// admitted to their epoch, and an element both inserted and deleted in
// the same epoch ends up deleted. Given the multiset of operations
// executed up to any epoch boundary, the quiescent table state at that
// boundary is a pure function of that multiset (history independence,
// the paper's determinism claim) — the detres EpochRunner replays
// scripted epochs across its seed × worker × fault-profile grid and
// byte-compares the quiescent layout after every epoch. What is NOT
// deterministic under live traffic is which epoch an op lands in: that
// depends on arrival timing, deadlines and admission pressure. See
// DESIGN.md §12 for the full claim and its limits.
//
// Robustness is the point, not an afterthought:
//
//   - Admission is bounded (Config.QueueLimit). When the queue is at
//     the limit the caller either gets ErrOverloaded immediately
//     (fail-fast, the default) or blocks until space or its context
//     deadline (Config.Block) — queue depth can never exceed the
//     configured watermark, so overload degrades goodput, never memory.
//   - Per-request deadlines propagate via context.Context: an op whose
//     context is done by flush time is shed *before* the epoch touches
//     the table and its future resolves with the context's error.
//   - Saturation degrades per-future: when TryInsertAll reports
//     ErrFull, a find pass attributes the failure — futures whose
//     element landed (or merged) succeed, the rest resolve with ErrFull
//     (retry with backoff; see the documented policy on ErrOverloaded).
//   - Oversized pending batches are split into multiple epochs of at
//     most Config.MaxBatch ops each, bounding per-epoch latency instead
//     of stalling small requests behind a monster flush.
//   - Close drains: admission stops with ErrClosed, every already
//     admitted op still executes, every future resolves, and the
//     flusher goroutine exits (the shutdown tests assert zero leaks).
//
// Retry policy for ErrOverloaded and ErrFull: both are load signals,
// not corruption. Back off (jittered, starting around one flush
// interval), shrink the request rate, and retry; ErrFull additionally
// means the table needs a larger Size — retrying without deleting or
// resizing will keep failing for the same keys.
package epoch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"phasehash/internal/chaos"
	"phasehash/internal/core"
	"phasehash/internal/obs"
)

// Op identifies one operation kind submitted to the server.
type Op uint8

// Operation kinds.
const (
	OpInsert Op = iota
	OpDelete
	OpFind
	OpElements
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpFind:
		return "find"
	case OpElements:
		return "elements"
	default:
		return "unknown-op"
	}
}

// Sentinel errors. core.ErrFull and core.ErrReservedKey also surface
// through futures; all are matchable with errors.Is.
var (
	// ErrOverloaded reports fail-fast admission refusal: the pending
	// queue is at Config.QueueLimit. Back off and retry.
	ErrOverloaded = errors.New("epoch: admission queue full")

	// ErrClosed reports submission to a closed (or closing) server.
	ErrClosed = errors.New("epoch: server closed")
)

// Result is the outcome of one submitted operation.
type Result struct {
	// Value is the stored element for OpFind (core.Empty when absent).
	Value uint64
	// OK reports success: present for OpFind, landed-or-merged for
	// OpInsert, executed for OpDelete/OpElements.
	OK bool
	// Elems is the epoch's deterministic Elements snapshot for
	// OpElements. The slice is shared by every OpElements future of the
	// epoch: treat it as read-only.
	Elems []uint64
	// Err is nil on success; ErrOverloaded / ErrClosed / the request
	// context's error (shed before execution) / core.ErrFull (insert
	// did not land) / context.Canceled (delivery cancelled).
	Err error
}

// Future resolves to the Result of one submitted op when its epoch
// completes (or immediately, when the op was shed).
type Future struct {
	res  Result
	done chan struct{}
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the result is available or ctx is done. A ctx
// error does NOT cancel the operation: an admitted op still executes
// in its epoch; only the caller stops waiting.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Result returns the resolved result; it must only be called after
// Done is closed (Wait returned nil).
func (f *Future) Result() Result { return f.res }

// resolved builds an already-resolved Future (shed paths).
func resolved(res Result) *Future {
	f := &Future{res: res, done: make(chan struct{})}
	close(f.done)
	return f
}

// Config parameterizes a Server. The zero value is usable: defaults
// are applied by NewServer (documented per field).
type Config struct {
	// Size is the total table capacity in cells (default 1<<20). Size
	// with the usual headroom: load factor below ~0.9.
	Size int
	// Shards is the shard count (default: core.DefaultShards(Size),
	// which is 8, fewer for small tables, on every machine). Pass a
	// larger count for more bulk parallelism on many cores.
	Shards int
	// MaxBatch is the epoch-size watermark (default 4096): a pending
	// batch larger than this is split into multiple epochs of at most
	// MaxBatch ops, bounding per-epoch flush latency.
	MaxBatch int
	// QueueLimit bounds the admission queue (default 4×MaxBatch).
	// Submit never lets the pending queue exceed it. A limit below
	// MaxBatch means the watermark can never trip: in scripted mode
	// (FlushInterval 0) the caller's explicit Flush is then the only
	// thing that drains a full queue.
	QueueLimit int
	// FlushInterval is the longest a pending op lingers before a
	// partial epoch flushes (default 0: flush only at the MaxBatch
	// watermark, an explicit Flush, or Close — the scripted mode the
	// determinism oracle and the tests drive).
	FlushInterval time.Duration
	// Block switches admission from fail-fast ErrOverloaded to
	// block-with-deadline: Submit waits for queue space until the
	// request context is done.
	Block bool
	// FlushDelay is an artificial per-epoch delay applied before each
	// flush — an experiment knob for simulating a slower backend in
	// overload soaks and tests (see EXPERIMENTS.md). Zero in production.
	FlushDelay time.Duration
}

// withDefaults returns cfg with unset fields defaulted.
func (cfg Config) withDefaults() Config {
	if cfg.Size <= 0 {
		cfg.Size = 1 << 20
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 4 * cfg.MaxBatch
	}
	return cfg
}

// Stats is the always-on operational counter snapshot of a Server
// (build-tag-free, unlike the obs telemetry: admission decisions need
// the queue depth anyway, so the counters ride the same mutex).
type Stats struct {
	Admitted     uint64 // ops past the admission gate
	ShedOverload uint64 // refused at admission (fail-fast or blocked ctx done)
	ShedDeadline uint64 // shed at flush: request context done before the epoch
	Cancelled    uint64 // deliveries cancelled (chaos injection)
	Epochs       uint64 // epochs flushed
	Splits       uint64 // extra epochs from splitting oversized batches
	FlushedOps   uint64 // ops executed across all epochs
	InsertOps    uint64 // insert ops executed (per-class split of FlushedOps)
	DeleteOps    uint64 // delete ops executed
	ReadOps      uint64 // find + elements ops executed
	InsertFull   uint64 // insert futures resolved with core.ErrFull
	MaxQueue     int    // deepest pending queue observed (≤ QueueLimit always)
}

// pendingOp is one admitted, not-yet-flushed operation.
type pendingOp struct {
	op       Op
	key      uint64
	ctx      context.Context
	admitted time.Time
	fut      *Future
}

// Server is the phase-batched epoch scheduler. Create with NewServer;
// all methods are safe for concurrent use.
type Server struct {
	cfg   Config
	table *core.ShardedTable[core.SetOps]

	mu      sync.Mutex
	notFull *sync.Cond
	pending []pendingOp
	closed  bool
	stats   Stats

	kick     chan struct{}      // first op landed in an empty queue
	kickFull chan struct{}      // queue reached the MaxBatch watermark
	flushReq chan chan struct{} // explicit Flush requests (ack channel)
	closing  chan struct{}      // Close requested
	done     chan struct{}      // flusher exited
}

// NewServer builds a server over a fresh sharded table and starts its
// flusher goroutine. Close must be called to release it.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return NewServerWith(cfg, core.NewShardedTable[core.SetOps](cfg.Size, cfg.Shards))
}

// NewServerWith is NewServer over a caller-built table (the oracle
// pins the shard count this way). The server takes ownership: the
// caller must not touch the table until after Close (or outside an
// explicit quiescent point, see Table).
func NewServerWith(cfg Config, table *core.ShardedTable[core.SetOps]) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		table:    table,
		kick:     make(chan struct{}, 1),
		kickFull: make(chan struct{}, 1),
		flushReq: make(chan chan struct{}),
		closing:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.notFull = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// Submit admits one operation. It returns a Future resolving when the
// op's epoch completes, or an admission error: ErrOverloaded (queue at
// the limit, fail-fast mode), the context's error (blocking mode wait
// expired, or the context was already done), ErrClosed, or
// core.ErrReservedKey (inserting the reserved empty element — rejected
// here so saturation is the only insert error an epoch can see).
//
//phasehash:nondet admission stamps wall-clock admit times for the latency telemetry; the table state never depends on them
func (s *Server) Submit(ctx context.Context, op Op, key uint64) (*Future, error) {
	if op == OpInsert && key == core.Empty {
		return nil, fmt.Errorf("%w: %#x is the reserved empty element", core.ErrReservedKey, core.Empty)
	}
	if chaos.Enabled {
		chaos.Yield(chaos.SiteEpochAdmit)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if len(s.pending) < s.cfg.QueueLimit {
			break
		}
		if !s.cfg.Block {
			s.stats.ShedOverload++
			s.mu.Unlock()
			if obs.Enabled {
				obs.RecordEpochShed(true)
			}
			return nil, ErrOverloaded
		}
		if err := ctx.Err(); err != nil {
			s.stats.ShedOverload++
			s.mu.Unlock()
			if obs.Enabled {
				obs.RecordEpochShed(true)
			}
			return nil, err
		}
		// Blocking admission: wait for the flusher to drain. The
		// AfterFunc wakes every waiter when this request's context
		// fires; taking the mutex in the callback orders the broadcast
		// after this goroutine is parked in Wait.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.notFull.Broadcast()
			s.mu.Unlock()
		})
		s.notFull.Wait()
		stop()
	}
	fut := &Future{done: make(chan struct{})}
	s.pending = append(s.pending, pendingOp{op: op, key: key, ctx: ctx, admitted: time.Now(), fut: fut})
	n := len(s.pending)
	if n > s.stats.MaxQueue {
		s.stats.MaxQueue = n
	}
	s.stats.Admitted++
	s.mu.Unlock()
	if obs.Enabled {
		obs.RecordEpochAdmit(n)
	}
	if n >= s.cfg.MaxBatch {
		select {
		case s.kickFull <- struct{}{}:
		default:
		}
	} else if n == 1 {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return fut, nil
}

// Flush forces everything currently pending into an epoch (or several,
// when over the MaxBatch watermark) and returns once those epochs have
// completed. Ops admitted concurrently with Flush may or may not be
// included. On a closed server Flush returns immediately: Close
// already drained.
func (s *Server) Flush() {
	ack := make(chan struct{})
	select {
	case s.flushReq <- ack:
	case <-s.done:
		return
	}
	select {
	case <-ack:
	case <-s.done:
	}
}

// Close stops admission (subsequent Submits fail with ErrClosed),
// drains every already admitted op through final epochs, resolves
// every future, and stops the flusher goroutine. It returns nil once
// the drain completes, or ctx's error if ctx expires first (the drain
// still finishes in the background).
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.notFull.Broadcast()
	s.mu.Unlock()
	if !already {
		close(s.closing)
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a snapshot of the operational counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// QueueDepth reports the current pending-op count (diagnostics).
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Table exposes the underlying sharded table for quiescent use only:
// after Close, or between a Flush and any further Submit with no
// concurrent clients (the determinism oracle's epoch boundaries).
func (s *Server) Table() *core.ShardedTable[core.SetOps] { return s.table }

// --- flusher ---

// run is the flusher goroutine: it waits for work (watermark kicks,
// linger timeouts, explicit flushes, shutdown), claims the pending
// batch, and flushes it as one or more epochs. The linger timer decides
// WHEN an epoch flushes, never what the flushed multiset produces.
func (s *Server) run() {
	defer close(s.done)
	kickCh := s.kick
	if s.cfg.FlushInterval <= 0 {
		kickCh = nil // manual mode: only the watermark, Flush or Close trigger
	}
	for {
		var ack chan struct{}
		select {
		case <-kickCh:
			if s.QueueDepth() == 0 {
				continue // stale kick: the batch was already claimed
			}
			ack = s.linger()
		case <-s.kickFull:
		case ack = <-s.flushReq:
		case <-s.closing:
			s.drain()
			return
		}
		s.flushBatch(s.take())
		if ack != nil {
			close(ack)
		}
	}
}

// linger holds a partial epoch open for up to FlushInterval so small
// requests batch up, returning early when the watermark fills the
// batch, a Flush arrives (its ack is returned for the caller to close
// after flushing), or the server starts closing.
func (s *Server) linger() chan struct{} {
	t := time.NewTimer(s.cfg.FlushInterval)
	defer t.Stop()
	for {
		if s.QueueDepth() >= s.cfg.MaxBatch {
			return nil
		}
		select {
		case <-s.kickFull:
			return nil
		case <-t.C:
			return nil
		case ack := <-s.flushReq:
			return ack
		case <-s.closing:
			return nil
		}
	}
}

// take claims the whole pending queue and wakes blocked submitters.
func (s *Server) take() []pendingOp {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.notFull.Broadcast()
	s.mu.Unlock()
	return batch
}

// drain flushes everything still pending after Close. Submissions
// racing Close may append between takes, so it loops until empty.
func (s *Server) drain() {
	for {
		batch := s.take()
		if len(batch) == 0 {
			return
		}
		s.flushBatch(batch)
	}
}

// flushBatch splits an oversized batch at the MaxBatch watermark and
// flushes each chunk as its own epoch, so one monster batch becomes a
// train of bounded epochs instead of a latency cliff.
func (s *Server) flushBatch(batch []pendingOp) {
	split := len(batch) > s.cfg.MaxBatch
	first := true
	for len(batch) > 0 {
		n := len(batch)
		if n > s.cfg.MaxBatch {
			n = s.cfg.MaxBatch
		}
		s.flush(batch[:n], split && !first)
		batch = batch[n:]
		first = false
	}
}

// flush executes one epoch: shed dead ops, then run the insert,
// delete and read phases through the bulk kernels, resolving futures
// as each phase completes. Deadline shedding chooses the admitted set;
// the quiescent state is a pure function of whatever set was chosen.
func (s *Server) flush(batch []pendingOp, split bool) {
	if chaos.Enabled {
		chaos.Yield(chaos.SiteEpochFlush) // delayed flush / stalled flusher
	}
	if s.cfg.FlushDelay > 0 {
		time.Sleep(s.cfg.FlushDelay)
	}

	// Shed ops whose request context is already done — BEFORE the table
	// sees them — and partition the survivors by phase.
	var ins, del, fnd, elm []pendingOp
	shed := 0
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.fut.res = Result{Err: err}
			close(p.fut.done)
			shed++
			if obs.Enabled {
				obs.RecordEpochShed(false)
			}
			continue
		}
		switch p.op {
		case OpInsert:
			ins = append(ins, p)
		case OpDelete:
			del = append(del, p)
		case OpFind:
			fnd = append(fnd, p)
		default:
			elm = append(elm, p)
		}
	}
	executed := len(batch) - shed

	insertFull := s.insertPhase(ins)
	s.deletePhase(del)
	s.readPhase(fnd, elm)

	s.mu.Lock()
	s.stats.Epochs++
	if split {
		s.stats.Splits++
	}
	s.stats.FlushedOps += uint64(executed)
	s.stats.InsertOps += uint64(len(ins))
	s.stats.DeleteOps += uint64(len(del))
	s.stats.ReadOps += uint64(len(fnd) + len(elm))
	s.stats.ShedDeadline += uint64(shed)
	s.stats.InsertFull += uint64(insertFull)
	s.mu.Unlock()
	if obs.Enabled {
		obs.RecordEpochFlush(executed, split, insertFull)
	}
}

// insertPhase runs the epoch's insert phase through the sharded bulk
// kernel and resolves the insert futures. Saturation degrades
// per-future: a find pass attributes ErrFull, so futures whose element
// landed (or merged with a duplicate) still succeed and only the
// elements that never made it resolve with ErrFull.
func (s *Server) insertPhase(ins []pendingOp) (insertFull int) {
	if len(ins) == 0 {
		return 0
	}
	keys := make([]uint64, len(ins))
	for i, p := range ins {
		keys[i] = p.key
	}
	var span *obs.ActiveSpan
	if obs.Enabled {
		span = obs.PhaseStart("epoch:insert")
	}
	_, err := s.table.TryInsertAll(keys)
	if obs.Enabled {
		obs.PhaseEnd(span)
	}
	if err == nil {
		for _, p := range ins {
			s.deliver(p, Result{OK: true})
		}
		return 0
	}
	// Attribute the failure per element. The flusher is the table's
	// only caller and the insert phase has drained (TryInsertAll
	// returned), so this read does not violate the phase discipline.
	dst := make([]uint64, len(keys))
	s.table.FindAll(keys, dst)
	for i, p := range ins {
		if dst[i] == core.Empty {
			insertFull++
			s.deliver(p, Result{Err: fmt.Errorf("%w: element %#x did not land (epoch insert phase saturated)", core.ErrFull, p.key)})
		} else {
			s.deliver(p, Result{OK: true})
		}
	}
	return insertFull
}

// deletePhase runs the epoch's delete phase through the sharded bulk
// kernel and resolves the delete futures.
func (s *Server) deletePhase(del []pendingOp) {
	if len(del) == 0 {
		return
	}
	keys := make([]uint64, len(del))
	for i, p := range del {
		keys[i] = p.key
	}
	var span *obs.ActiveSpan
	if obs.Enabled {
		span = obs.PhaseStart("epoch:delete")
	}
	s.table.DeleteAll(keys)
	if obs.Enabled {
		obs.PhaseEnd(span)
	}
	for _, p := range del {
		s.deliver(p, Result{OK: true})
	}
}

// readPhase runs the epoch's find/elements phase: the find keys
// through one FindAll, then (at most) one Elements snapshot shared by
// every OpElements future of the epoch.
func (s *Server) readPhase(fnd, elm []pendingOp) {
	if len(fnd) == 0 && len(elm) == 0 {
		return
	}
	var span *obs.ActiveSpan
	if obs.Enabled {
		span = obs.PhaseStart("epoch:read")
	}
	if len(fnd) > 0 {
		keys := make([]uint64, len(fnd))
		for i, p := range fnd {
			keys[i] = p.key
		}
		dst := make([]uint64, len(keys))
		s.table.FindAll(keys, dst)
		for i, p := range fnd {
			s.deliver(p, Result{Value: dst[i], OK: dst[i] != core.Empty})
		}
	}
	if len(elm) > 0 {
		es := s.table.Elements()
		for _, p := range elm {
			s.deliver(p, Result{OK: true, Elems: es})
		}
	}
	if obs.Enabled {
		obs.PhaseEnd(span)
	}
}

// deliver resolves one future. The table operation has already
// executed; chaos can force a mid-epoch cancellation here, which (by
// design) affects only the response path — the quiescent state is
// already committed, so the determinism oracle stays byte-identical
// across fault profiles.
//
//phasehash:nondet time.Since feeds the admit-to-complete latency histogram only
func (s *Server) deliver(p pendingOp, res Result) {
	if chaos.Enabled && chaos.Fault(chaos.SiteEpochCancel) {
		res = Result{Err: context.Canceled}
		s.mu.Lock()
		s.stats.Cancelled++
		s.mu.Unlock()
		if obs.Enabled {
			obs.RecordEpochCancel()
		}
	}
	if obs.Enabled {
		obs.RecordEpochLatency(uint64(time.Since(p.admitted) / time.Microsecond))
	}
	p.fut.res = res
	close(p.fut.done)
}
