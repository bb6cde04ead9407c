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
// depends on arrival timing, flusher availability, deadlines and
// admission pressure. See DESIGN.md §12 for the full claim and its
// limits.
//
// Live epochs are self-clocking: the flusher takes the whole pending
// queue as soon as it is idle, so at low load a lone op flushes at
// once, and under load everything admitted while one epoch runs
// becomes the next. No timer holds a partial epoch open.
//
// Requests travel in batches: one wire read, or one Submit, is admitted
// under one lock acquisition, resolved by the flusher one status byte per
// op, and completed by closing one channel. No op carries a channel, a
// timer or a context of its own.
//
// Robustness is the point, not an afterthought:
//
//   - Admission is bounded (Config.QueueLimit, counted in ops). When the
//     queue is at the limit an op is either refused with ErrOverloaded
//     (fail-fast, the default) or waits for space until its context is
//     done or its own deadline passes (Config.Block) — queue depth can
//     never exceed the limit, so overload degrades goodput, never memory.
//   - Deadlines: a Submit caller's context, or a wire request's
//     timeout_us counted from its admission. An op whose deadline has
//     passed by flush time is shed *before* the epoch touches the table
//     (one clock read per epoch) and resolves with the deadline error.
//   - Unknown ops and inserts of the reserved empty element are refused
//     at admission (ErrBadOp, core.ErrReservedKey): the table only sees
//     the four ops it implements.
//   - Saturation degrades per op: when TryInsertAll reports ErrFull, a
//     find pass attributes the failure — ops whose element landed (or
//     merged) succeed, the rest resolve with ErrFull (retry with
//     backoff; see the documented policy on ErrOverloaded).
//   - Oversized pending queues are split into multiple epochs of at
//     most Config.MaxBatch ops each, bounding per-epoch latency instead
//     of stalling small requests behind a monster flush.
//   - Close drains: admission stops with ErrClosed, every already
//     admitted op still executes, every future resolves, and the
//     flusher goroutine exits (the shutdown tests assert zero leaks).
//
// Retry policy for ErrOverloaded and ErrFull: both are load signals,
// not corruption. Back off (jittered, starting around one epoch's
// flush time), shrink the request rate, and retry; ErrFull additionally
// means the table needs a larger Size — retrying without deleting or
// resizing will keep failing for the same keys.
package epoch

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

	// ErrBadOp reports an op code above OpElements. It is refused at
	// admission and never reaches the table.
	ErrBadOp = errors.New("epoch: unknown op")
)

// Result is the outcome of one submitted operation.
type Result struct {
	// Value is the stored element for OpFind (core.Empty when absent).
	Value uint64
	// OK reports success: present for OpFind, landed-or-merged for
	// OpInsert, executed for OpDelete/OpElements.
	OK bool
	// Elems is the epoch's deterministic Elements snapshot for
	// OpElements. The slice is shared by every OpElements op of the
	// epoch: treat it as read-only.
	Elems []uint64
	// Err is nil on success; ErrOverloaded / ErrClosed / ErrBadOp /
	// core.ErrReservedKey (refused at admission) / the request
	// context's error (shed before execution) / core.ErrFull (insert
	// did not land) / context.Canceled (delivery cancelled).
	Err error
}

// statusPending marks an admitted op the flusher has not resolved. It
// never reaches the wire: a batch is answered only once every op in it
// has resolved.
const statusPending uint8 = 0xff

// batch is a run of requests admitted together: the frames of one wire
// read, or the single op of a Submit. An op's whole in-flight state is
// its request frame, kept in the wire layout (see net.go), and its
// status byte; completion is one channel per batch.
type batch struct {
	frames   []byte        // len(status) request frames of reqFrameLen bytes
	status   []uint8       // per op: statusPending, then its Status code
	left     atomic.Int32  // unresolved ops, plus admit's reference while it runs
	done     chan struct{} // closed when left reaches zero
	ctx      context.Context
	admitted time.Time  // admission time; a frame's timeout_us counts from here
	snaps    []snapshot // Elements results of the batch's executed OpElements ops
}

// snapshot is the Elements result delivered to op i of a batch.
type snapshot struct {
	i     int
	elems []uint64
}

// newBatch returns a batch of n ops whose frames and status bytes share
// one exact-size allocation; the caller fills the frames.
func newBatch(ctx context.Context, n int) *batch {
	buf := make([]byte, n*(reqFrameLen+1))
	return &batch{frames: buf[:n*reqFrameLen], status: buf[n*reqFrameLen:], done: make(chan struct{}), ctx: ctx}
}

// op, key and timeout decode op i's request frame.
func (b *batch) op(i int) Op { return Op(b.frames[i*reqFrameLen+8]) }

func (b *batch) key(i int) uint64 {
	return binary.LittleEndian.Uint64(b.frames[i*reqFrameLen+9:])
}

func (b *batch) timeout(i int) time.Duration {
	return time.Duration(binary.LittleEndian.Uint32(b.frames[i*reqFrameLen+17:])) * time.Microsecond
}

// late reports whether op i's own deadline (its timeout_us, if any,
// after the batch's admission) has passed at now.
func (b *batch) late(i int, now time.Time) bool {
	d := b.timeout(i)
	return d > 0 && now.Sub(b.admitted) >= d
}

// resolve sets op i's status and drops its reference.
func (b *batch) resolve(i int, st uint8) {
	b.status[i] = st
	b.release()
}

// release drops one reference; the last one closes done.
func (b *batch) release() {
	if b.left.Add(-1) == 0 {
		close(b.done)
	}
}

// result decodes op i's Result from its status byte. Call it only
// after done is closed.
func (b *batch) result(i int) Result {
	switch st := b.status[i]; st {
	case StatusOK:
		res := Result{OK: true}
		switch b.op(i) {
		case OpFind:
			res.Value = b.key(i)
		case OpElements:
			res.Elems = b.snapshot(i)
		}
		return res
	case StatusMiss:
		return Result{Value: core.Empty}
	case StatusFull:
		return Result{Err: fmt.Errorf("%w: element %#x did not land (epoch insert phase saturated)", core.ErrFull, b.key(i))}
	case StatusReserved:
		return Result{Err: fmt.Errorf("%w: %#x is the reserved empty element", core.ErrReservedKey, core.Empty)}
	case StatusBadOp:
		return Result{Err: fmt.Errorf("%w: op code %d", ErrBadOp, b.op(i))}
	default:
		return Result{Err: errOf(st)}
	}
}

// snapshot returns the Elements result delivered to op i.
func (b *batch) snapshot(i int) []uint64 {
	for _, s := range b.snaps {
		if s.i == i {
			return s.elems
		}
	}
	return nil
}

// ctxStatus maps a context error to the status of the ops it sheds
// (statusPending for a live context).
func ctxStatus(err error) uint8 {
	switch {
	case err == nil:
		return statusPending
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	default:
		return StatusCancelled
	}
}

// Future resolves to the Result of one submitted op when its epoch
// completes. It is a one-op batch whose frame and status byte live
// inline.
type Future struct {
	b   batch
	buf [reqFrameLen + 1]byte
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.b.done }

// Wait blocks until the result is available or ctx is done. A ctx
// error does NOT cancel the operation: an admitted op still executes
// in its epoch; only the caller stops waiting.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.b.done:
		return f.b.result(0), nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Result returns the resolved result; it must only be called after
// Done is closed (Wait returned nil).
func (f *Future) Result() Result { return f.b.result(0) }

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
	// queue larger than this is split into multiple epochs of at most
	// MaxBatch ops, bounding per-epoch flush latency.
	MaxBatch int
	// QueueLimit bounds the admission queue in ops (default
	// 4×MaxBatch). Admission never lets the pending queue exceed it,
	// and it also bounds each connection's unanswered backlog. A limit
	// below MaxBatch means the watermark can never trip: in scripted
	// mode (FlushInterval 0) the caller's explicit Flush is then the
	// only thing that drains a full queue.
	QueueLimit int
	// FlushInterval selects the flush mode; only its sign is read. A
	// positive value is live mode: the flusher cuts an epoch as soon as
	// it is idle and the queue is non-empty, so ops admitted while an
	// epoch runs form the next one. 0 (the default) is scripted mode:
	// epochs flush only at the MaxBatch watermark, an explicit Flush, or
	// Close — the mode the determinism oracle and the tests drive.
	FlushInterval time.Duration
	// Block switches admission from fail-fast ErrOverloaded to
	// block-with-deadline: an op waits for queue space until its
	// context is done or its own deadline passes.
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
	ShedOverload uint64 // refused at admission (fail-fast, or a blocked wait whose context or deadline expired)
	ShedDeadline uint64 // shed at flush: context done or deadline passed before the epoch
	Cancelled    uint64 // deliveries cancelled (chaos injection)
	Epochs       uint64 // epochs flushed
	Splits       uint64 // extra epochs from splitting oversized batches
	FlushedOps   uint64 // ops executed across all epochs
	InsertOps    uint64 // insert ops executed (per-class split of FlushedOps)
	DeleteOps    uint64 // delete ops executed
	ReadOps      uint64 // find + elements ops executed
	InsertFull   uint64 // insert ops resolved with core.ErrFull
	MaxQueue     int    // deepest pending queue observed (≤ QueueLimit always)
}

// span is the admitted ops [lo, hi) of one batch, in admission order.
type span struct {
	b      *batch
	lo, hi int
}

// Server is the phase-batched epoch scheduler. Create with NewServer;
// all methods are safe for concurrent use.
type Server struct {
	cfg   Config
	table *core.ShardedTable[core.SetOps]

	mu      sync.Mutex
	notFull *sync.Cond
	pending []span // admitted, unflushed ops in admission order
	queued  int    // ops in pending: what QueueLimit and MaxBatch compare against
	closed  bool
	stats   Stats

	kick     chan struct{}      // ops landed in the queue
	kickFull chan struct{}      // queue reached the MaxBatch watermark
	flushReq chan chan struct{} // explicit Flush requests (ack channel)
	closing  chan struct{}      // Close requested
	done     chan struct{}      // flusher exited

	// Flusher-owned scratch, reused across epochs.
	spare         []span   // the last flushed span slice, cleared, for the next take
	ins, del, fnd []uint64 // the epoch's keys per phase
	dst           []uint64 // FindAll results
	cancelled     int      // deliveries cancelled in the current epoch
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
// expired, or the context was already done), ErrClosed, ErrBadOp (an
// op code above OpElements), or core.ErrReservedKey (inserting the
// reserved empty element — rejected here so saturation is the only
// insert error an epoch can see). Submit is admission of a one-op
// batch.
func (s *Server) Submit(ctx context.Context, op Op, key uint64) (*Future, error) {
	f := &Future{}
	b := &f.b
	b.frames, b.status = f.buf[:reqFrameLen], f.buf[reqFrameLen:]
	putFrame(b.frames, 0, op, key, 0)
	b.done, b.ctx = make(chan struct{}), ctx
	if s.admit(b) == 0 {
		return nil, b.result(0).Err
	}
	return f, nil
}

// admit runs batch b through the admission gate, taking s.mu once (and
// once more per wait in Block mode). Ops are decided one at a time, in
// order: a refused op resolves at once with its status, an admitted one
// extends the batch's current span in the pending queue. It returns the
// number of ops admitted.
//
//phasehash:nondet the admit time is the origin of wire deadlines and of the latency telemetry; it never reaches the table
func (s *Server) admit(b *batch) int {
	n := len(b.status)
	// admit's own reference: a batch can straddle epochs (a watermark
	// split, or a blocked wait while the flusher takes the queue), so
	// its ops may all resolve before admission has decided the last.
	b.left.Store(int32(n) + 1)
	if chaos.Enabled {
		chaos.Yield(chaos.SiteEpochAdmit)
	}
	b.admitted = time.Now()
	ctxSt := ctxStatus(b.ctx.Err())
	admitted := 0
	s.mu.Lock()
	for i := 0; i < n; i++ {
		st := ctxSt
		switch op := b.op(i); {
		case op > OpElements:
			st = StatusBadOp
		case op == OpInsert && b.key(i) == core.Empty:
			st = StatusReserved
		case st == statusPending:
			st = s.room(b, i)
		}
		if st != statusPending {
			b.resolve(i, st)
			continue
		}
		b.status[i] = statusPending
		if k := len(s.pending) - 1; k >= 0 && s.pending[k].b == b && s.pending[k].hi == i {
			s.pending[k].hi++
		} else {
			s.pending = append(s.pending, span{b: b, lo: i, hi: i + 1})
		}
		s.queued++
		s.stats.Admitted++
		admitted++
	}
	s.publish()
	s.mu.Unlock()
	b.release()
	return admitted
}

// room decides, with s.mu held, whether op i may join the queue:
// statusPending admits it, anything else is its refusal. In Block mode
// a full queue parks the op until there is room, its context is done
// or its own deadline passes. Refusals for a full queue count as
// ShedOverload.
func (s *Server) room(b *batch, i int) uint8 {
	for {
		if s.closed {
			return StatusClosed
		}
		if s.queued < s.cfg.QueueLimit {
			return statusPending
		}
		st := StatusOverloaded
		if s.cfg.Block {
			st = ctxStatus(b.ctx.Err())
			if st == statusPending && b.late(i, time.Now()) {
				st = StatusDeadline
			}
			if st == statusPending {
				s.block(b, i)
				continue
			}
		}
		s.stats.ShedOverload++
		return st
	}
}

// block waits on notFull (s.mu held) until a take or Close broadcasts,
// b's context is done, or op i's own deadline passes. The wake-ups
// take the mutex, which orders their broadcast after this goroutine is
// parked in Wait.
func (s *Server) block(b *batch, i int) {
	s.publish()
	stop := context.AfterFunc(b.ctx, s.broadcast)
	defer stop()
	if d := b.timeout(i); d > 0 {
		t := time.AfterFunc(time.Until(b.admitted.Add(d)), s.broadcast)
		defer t.Stop()
	}
	s.notFull.Wait()
}

func (s *Server) broadcast() {
	s.mu.Lock()
	s.notFull.Broadcast()
	s.mu.Unlock()
}

// publish records the queue depth and wakes the flusher (s.mu held):
// kickFull at the watermark, else kick for a non-empty queue. Both
// channels hold one token, so a send to a full one costs no lock.
func (s *Server) publish() {
	if s.queued > s.stats.MaxQueue {
		s.stats.MaxQueue = s.queued
	}
	switch {
	case s.queued >= s.cfg.MaxBatch:
		select {
		case s.kickFull <- struct{}{}:
		default:
		}
	case s.queued > 0:
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
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
	return s.queued
}

// Table exposes the underlying sharded table for quiescent use only:
// after Close, or between a Flush and any further Submit with no
// concurrent clients (the determinism oracle's epoch boundaries).
func (s *Server) Table() *core.ShardedTable[core.SetOps] { return s.table }

// --- flusher ---

// run is the flusher goroutine: it waits for work (admission kicks,
// watermark kicks, explicit flushes, shutdown), claims the pending
// queue, and flushes it as one or more epochs. In live mode any
// admission kick is enough: the flusher takes the queue as soon as it
// is idle and the queue is non-empty, so ops admitted while an epoch
// runs form the next epoch and epochs grow with load by themselves. In
// scripted mode only the watermark, Flush or Close cut an epoch. Either
// way the flusher's availability decides WHEN an epoch flushes, never
// what the flushed multiset produces.
func (s *Server) run() {
	defer close(s.done)
	kickCh := s.kick
	if s.cfg.FlushInterval <= 0 {
		kickCh = nil // scripted mode: only the watermark, Flush or Close trigger
	}
	for {
		var ack chan struct{}
		select {
		case <-kickCh:
		case <-s.kickFull:
		case ack = <-s.flushReq:
		case <-s.closing:
			s.drain()
			return
		}
		s.flushBatch(s.take()) // a stale kick takes an empty queue: no epoch
		if ack != nil {
			close(ack)
		}
	}
}

// take claims the whole pending queue, hands admission the flusher's
// spare span slice, and wakes blocked submitters.
func (s *Server) take() ([]span, int) {
	s.mu.Lock()
	spans, n := s.pending, s.queued
	s.pending, s.queued, s.spare = s.spare, 0, nil
	s.notFull.Broadcast()
	s.mu.Unlock()
	return spans, n
}

// drain flushes everything still pending after Close. Admissions
// racing Close may append between takes, so it loops until empty.
func (s *Server) drain() {
	for {
		spans, n := s.take()
		if n == 0 {
			return
		}
		s.flushBatch(spans, n)
	}
}

// flushBatch cuts the n ops of spans into epochs of at most MaxBatch
// ops, splitting the span that straddles each cut, so one monster
// queue becomes a train of bounded epochs instead of a latency cliff.
// The emptied span slice becomes the spare for the next take.
func (s *Server) flushBatch(spans []span, n int) {
	all := spans
	split := n > s.cfg.MaxBatch
	for first := true; len(spans) > 0; first = false {
		k, ops := 0, 0
		for k < len(spans) && ops+spans[k].hi-spans[k].lo <= s.cfg.MaxBatch {
			ops += spans[k].hi - spans[k].lo
			k++
		}
		if k == len(spans) || ops == s.cfg.MaxBatch {
			s.flush(spans[:k], split && !first)
			spans = spans[k:]
			continue
		}
		rest := spans[k]
		spans[k].hi = rest.lo + s.cfg.MaxBatch - ops
		rest.lo = spans[k].hi
		s.flush(spans[:k+1], split && !first)
		spans[k] = rest
		spans = spans[k:]
	}
	clear(all)
	s.spare = all[:0]
}

// flush executes one epoch: shed the ops whose context is done or
// whose deadline has passed, then run the insert, delete and read
// phases through the bulk kernels, resolving each op as its phase
// completes. Deadline shedding chooses the executed set; the quiescent
// state is a pure function of whatever set was chosen.
//
//phasehash:nondet one clock read per epoch decides deadline shedding, which picks the executed set, never what a given set produces
func (s *Server) flush(spans []span, split bool) {
	if chaos.Enabled {
		chaos.Yield(chaos.SiteEpochFlush) // delayed flush / stalled flusher
	}
	if s.cfg.FlushDelay > 0 {
		time.Sleep(s.cfg.FlushDelay)
	}

	// Shed dead ops BEFORE the table sees them, and gather the
	// survivors' keys by phase.
	now := time.Now()
	s.ins, s.del, s.fnd = s.ins[:0], s.del[:0], s.fnd[:0]
	elm, shed := 0, 0
	for _, sp := range spans {
		b := sp.b
		ctxSt := ctxStatus(b.ctx.Err())
		for i := sp.lo; i < sp.hi; i++ {
			st := ctxSt
			if st == statusPending && b.late(i, now) {
				st = StatusDeadline
			}
			if st != statusPending {
				b.resolve(i, st)
				shed++
				continue
			}
			switch b.op(i) {
			case OpInsert:
				s.ins = append(s.ins, b.key(i))
			case OpDelete:
				s.del = append(s.del, b.key(i))
			case OpFind:
				s.fnd = append(s.fnd, b.key(i))
			default:
				elm++
			}
		}
	}
	executed := len(s.ins) + len(s.del) + len(s.fnd) + elm

	insertFull := s.insertPhase(spans)
	s.deletePhase(spans)
	s.readPhase(spans, elm)

	s.mu.Lock()
	s.stats.Epochs++
	if split {
		s.stats.Splits++
	}
	s.stats.FlushedOps += uint64(executed)
	s.stats.InsertOps += uint64(len(s.ins))
	s.stats.DeleteOps += uint64(len(s.del))
	s.stats.ReadOps += uint64(len(s.fnd) + elm)
	s.stats.ShedDeadline += uint64(shed)
	s.stats.InsertFull += uint64(insertFull)
	s.stats.Cancelled += uint64(s.cancelled)
	s.mu.Unlock()
	s.cancelled = 0
}

// insertPhase runs the epoch's insert phase through the sharded bulk
// kernel and resolves the insert ops. Saturation degrades per op: a
// find pass attributes ErrFull, so ops whose element landed (or merged
// with a duplicate) still succeed and only the elements that never
// made it resolve with StatusFull.
func (s *Server) insertPhase(spans []span) (insertFull int) {
	if len(s.ins) == 0 {
		return 0
	}
	var ps *obs.ActiveSpan
	if obs.Enabled {
		ps = obs.PhaseStart("epoch:insert")
	}
	_, err := s.table.TryInsertAll(s.ins)
	if obs.Enabled {
		obs.PhaseEnd(ps)
	}
	var landed []uint64
	if err != nil {
		// Attribute the failure per element. The flusher is the table's
		// only caller and the insert phase has drained (TryInsertAll
		// returned), so this read does not violate the phase discipline.
		s.dst = fit(s.dst, len(s.ins))
		s.table.FindAll(s.ins, s.dst)
		landed = s.dst
	}
	s.deliverAll(spans, OpInsert, func(_ *batch, _, j int) uint8 {
		if landed != nil && landed[j] == core.Empty {
			insertFull++
			return StatusFull
		}
		return StatusOK
	})
	return insertFull
}

// deletePhase runs the epoch's delete phase through the sharded bulk
// kernel and resolves the delete ops.
func (s *Server) deletePhase(spans []span) {
	if len(s.del) == 0 {
		return
	}
	var ps *obs.ActiveSpan
	if obs.Enabled {
		ps = obs.PhaseStart("epoch:delete")
	}
	s.table.DeleteAll(s.del)
	if obs.Enabled {
		obs.PhaseEnd(ps)
	}
	s.deliverAll(spans, OpDelete, func(*batch, int, int) uint8 { return StatusOK })
}

// readPhase runs the epoch's find/elements phase: the find keys
// through one FindAll, then (at most) one Elements snapshot shared by
// every OpElements op of the epoch.
func (s *Server) readPhase(spans []span, elm int) {
	if len(s.fnd) == 0 && elm == 0 {
		return
	}
	var ps *obs.ActiveSpan
	if obs.Enabled {
		ps = obs.PhaseStart("epoch:read")
	}
	if len(s.fnd) > 0 {
		s.dst = fit(s.dst, len(s.fnd))
		s.table.FindAll(s.fnd, s.dst)
		dst := s.dst
		s.deliverAll(spans, OpFind, func(_ *batch, _, j int) uint8 {
			if dst[j] == core.Empty {
				return StatusMiss
			}
			return StatusOK
		})
	}
	if elm > 0 {
		es := s.table.Elements()
		s.deliverAll(spans, OpElements, func(b *batch, i, _ int) uint8 {
			b.snaps = append(b.snaps, snapshot{i: i, elems: es})
			return StatusOK
		})
	}
	if obs.Enabled {
		obs.PhaseEnd(ps)
	}
}

// deliverAll resolves, in span order, the epoch's executed ops of kind
// op (shed ops are already resolved); status(b, i, j) gives the status
// of the j-th, op i of batch b.
func (s *Server) deliverAll(spans []span, op Op, status func(b *batch, i, j int) uint8) {
	j := 0
	for _, sp := range spans {
		b := sp.b
		for i := sp.lo; i < sp.hi; i++ {
			if b.status[i] == statusPending && b.op(i) == op {
				s.deliver(b, i, status(b, i, j))
				j++
			}
		}
	}
}

// deliver resolves one executed op. The table operation has already
// run; chaos can force a mid-epoch cancellation here, which (by design)
// affects only the response path — the quiescent state is already
// committed, so the determinism oracle stays byte-identical across
// fault profiles.
//
//phasehash:nondet time.Since feeds the admit-to-complete latency histogram only
func (s *Server) deliver(b *batch, i int, st uint8) {
	if chaos.Enabled && chaos.Fault(chaos.SiteEpochCancel) {
		st = StatusCancelled
		s.cancelled++
	}
	if obs.Enabled {
		obs.RecordEpochLatency(uint64(time.Since(b.admitted) / time.Microsecond))
	}
	b.resolve(i, st)
}

// fit returns buf resized to n, reallocating only when it is too small.
func fit(buf []uint64, n int) []uint64 {
	return slices.Grow(buf[:0], n)[:n]
}
