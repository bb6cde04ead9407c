package epoch

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"phasehash/internal/core"
	"phasehash/internal/parallel"
)

// manualServer builds a server that Close releases at test end. It is
// in scripted mode unless cfg sets a FlushInterval: epochs flush only
// at the MaxBatch watermark, an explicit Flush, or Close.
func manualServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// mustSubmit admits one op or fails the test.
func mustSubmit(t *testing.T, s *Server, op Op, key uint64) *Future {
	t.Helper()
	f, err := s.Submit(context.Background(), op, key)
	if err != nil {
		t.Fatalf("Submit(%v, %#x): %v", op, key, err)
	}
	return f
}

// mustResult waits (bounded) for a future and returns its result.
func mustResult(t *testing.T, f *Future) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := f.Wait(ctx)
	if err != nil {
		t.Fatalf("Future.Wait: %v", err)
	}
	return res
}

func TestBasicOps(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 12})

	ins := []*Future{
		mustSubmit(t, s, OpInsert, 10),
		mustSubmit(t, s, OpInsert, 20),
		mustSubmit(t, s, OpInsert, 10), // duplicate merges
	}
	s.Flush()
	for i, f := range ins {
		if res := mustResult(t, f); res.Err != nil || !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}

	hit := mustSubmit(t, s, OpFind, 20)
	miss := mustSubmit(t, s, OpFind, 99)
	el := mustSubmit(t, s, OpElements, 0)
	s.Flush()
	if res := mustResult(t, hit); !res.OK || res.Value != 20 {
		t.Fatalf("find hit: %+v", res)
	}
	if res := mustResult(t, miss); res.OK || res.Value != core.Empty {
		t.Fatalf("find miss: %+v", res)
	}
	if res := mustResult(t, el); !res.OK || len(res.Elems) != 2 {
		t.Fatalf("elements: %+v", res)
	}

	del := mustSubmit(t, s, OpDelete, 10)
	s.Flush()
	if res := mustResult(t, del); res.Err != nil || !res.OK {
		t.Fatalf("delete: %+v", res)
	}
	if got := s.Table().Count(); got != 1 {
		t.Fatalf("Count after delete = %d, want 1", got)
	}

	st := s.Stats()
	if st.Admitted != 7 || st.FlushedOps != 7 || st.Epochs != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEpochPhaseOrder pins the intra-epoch phase order: inserts, then
// deletes, then reads. A key inserted and deleted in the same epoch
// ends deleted, and same-epoch finds observe both phases.
func TestEpochPhaseOrder(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10})

	fIns := mustSubmit(t, s, OpInsert, 7)
	fDel := mustSubmit(t, s, OpDelete, 7)
	fFind := mustSubmit(t, s, OpFind, 7)
	fIns2 := mustSubmit(t, s, OpInsert, 8)
	fFind2 := mustSubmit(t, s, OpFind, 8)
	s.Flush()

	if res := mustResult(t, fIns); !res.OK {
		t.Fatalf("insert: %+v", res)
	}
	if res := mustResult(t, fDel); !res.OK {
		t.Fatalf("delete: %+v", res)
	}
	if res := mustResult(t, fFind); res.OK {
		t.Fatalf("find after same-epoch insert+delete should miss: %+v", res)
	}
	if res := mustResult(t, fFind2); !res.OK || res.Value != 8 {
		t.Fatalf("find should observe same-epoch insert: %+v", res)
	}
	_ = fIns2
	if got := s.Table().Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestReservedKeyRejectedAtAdmission(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10})
	if _, err := s.Submit(context.Background(), OpInsert, core.Empty); !errors.Is(err, core.ErrReservedKey) {
		t.Fatalf("Submit(insert, Empty) err = %v, want ErrReservedKey", err)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("reserved key was admitted: %+v", st)
	}
}

// TestDeadlineShed checks that an op whose context expires after
// admission but before its epoch flushes is shed without touching the
// table, resolving with the context error.
func TestDeadlineShed(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10})

	ctx, cancel := context.WithCancel(context.Background())
	f, err := s.Submit(ctx, OpInsert, 42)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancel() // expires before the epoch
	live := mustSubmit(t, s, OpInsert, 43)
	s.Flush()

	if res := mustResult(t, f); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("shed future: %+v, want context.Canceled", res)
	}
	if res := mustResult(t, live); !res.OK {
		t.Fatalf("live future: %+v", res)
	}
	if s.Table().Contains(42) {
		t.Fatal("shed insert reached the table")
	}
	if !s.Table().Contains(43) {
		t.Fatal("live insert missing")
	}
	if st := s.Stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1; stats %+v", st.ShedDeadline, st)
	}
}

// TestSubmitExpiredContext: a context that is already done never
// admits.
func TestSubmitExpiredContext(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, OpFind, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOverloadFailFast: with the default fail-fast admission, the
// queue never exceeds QueueLimit and excess submits get ErrOverloaded.
func TestOverloadFailFast(t *testing.T) {
	// FlushDelay stalls the flusher so the queue actually fills: the
	// watermark kick fires, but the flusher is asleep in its first
	// epoch while we keep submitting.
	s := manualServer(t, Config{Size: 1 << 12, MaxBatch: 8, QueueLimit: 8, FlushDelay: 50 * time.Millisecond})

	var okN, overN int
	for i := 0; i < 64; i++ {
		_, err := s.Submit(context.Background(), OpInsert, uint64(i+1))
		switch {
		case err == nil:
			okN++
		case errors.Is(err, ErrOverloaded):
			overN++
		default:
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if overN == 0 {
		t.Fatal("no submissions shed at 8x queue pressure")
	}
	st := s.Stats()
	if st.MaxQueue > 8 {
		t.Fatalf("MaxQueue = %d exceeds QueueLimit 8", st.MaxQueue)
	}
	if st.ShedOverload != uint64(overN) {
		t.Fatalf("ShedOverload = %d, want %d", st.ShedOverload, overN)
	}
	t.Logf("admitted=%d shed=%d", okN, overN)
}

// TestOverloadBlocking: Block mode parks submitters instead of
// refusing, releases them as the flusher drains, and sheds them with
// the context error when their deadline fires first.
func TestOverloadBlocking(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 12, MaxBatch: 1 << 14, QueueLimit: 4, Block: true})

	// Fill the queue (watermark is far away: manual mode, no flush).
	for i := 0; i < 4; i++ {
		mustSubmit(t, s, OpInsert, uint64(i+1))
	}

	// A blocked submitter with a deadline gets the context error.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, OpInsert, 100); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit err = %v, want DeadlineExceeded", err)
	}

	// A blocked submitter without a deadline is released by a drain.
	released := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), OpInsert, 101)
		released <- err
	}()
	// Wait until the submitter is parked, then drain.
	for s.Stats().MaxQueue < 4 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	s.Flush()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("released submit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submitter never released by drain")
	}
	if st := s.Stats(); st.MaxQueue > 4 {
		t.Fatalf("MaxQueue = %d exceeds QueueLimit 4", st.MaxQueue)
	}
}

// TestWatermarkSplit: a pending batch larger than MaxBatch is split
// into multiple epochs of at most MaxBatch ops.
func TestWatermarkSplit(t *testing.T) {
	// FlushDelay makes the flusher slow enough that submissions pile up
	// past the watermark while an epoch is in flight; the oversized
	// take is then split.
	s := manualServer(t, Config{Size: 1 << 12, MaxBatch: 8, QueueLimit: 64, FlushDelay: 30 * time.Millisecond})

	futs := make([]*Future, 0, 30)
	for i := 0; i < 30; i++ {
		futs = append(futs, mustSubmit(t, s, OpInsert, uint64(i+1)))
	}
	s.Flush()
	for i, f := range futs {
		if res := mustResult(t, f); !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}
	st := s.Stats()
	if st.Splits == 0 {
		t.Fatalf("no splits recorded for 30 ops at MaxBatch 8: %+v", st)
	}
	if st.FlushedOps != 30 {
		t.Fatalf("FlushedOps = %d, want 30", st.FlushedOps)
	}
	if got := s.Table().Count(); got != 30 {
		t.Fatalf("Count = %d, want 30", got)
	}
}

// TestInsertFullPerFuture: when an epoch saturates the table, exactly
// the futures whose element did not land resolve with core.ErrFull,
// and the successes match the table contents.
func TestInsertFullPerFuture(t *testing.T) {
	s := manualServer(t, Config{Size: 16, Shards: 1})

	futs := make([]*Future, 0, 64)
	for i := 0; i < 64; i++ {
		futs = append(futs, mustSubmit(t, s, OpInsert, uint64(i+1)))
	}
	s.Flush()

	okN, fullN := 0, 0
	for i, f := range futs {
		res := mustResult(t, f)
		switch {
		case res.OK && res.Err == nil:
			okN++
			if !s.Table().Contains(uint64(i + 1)) {
				t.Fatalf("future %d succeeded but element missing", i)
			}
		case errors.Is(res.Err, core.ErrFull):
			fullN++
			if s.Table().Contains(uint64(i + 1)) {
				t.Fatalf("future %d got ErrFull but element present", i)
			}
		default:
			t.Fatalf("future %d: %+v", i, res)
		}
	}
	if fullN == 0 {
		t.Fatal("64 inserts into a 16-cell table produced no ErrFull")
	}
	if got := s.Table().Count(); got != okN {
		t.Fatalf("Count = %d, successes = %d", got, okN)
	}
	if st := s.Stats(); st.InsertFull != uint64(fullN) {
		t.Fatalf("InsertFull = %d, want %d", st.InsertFull, fullN)
	}
	t.Logf("landed=%d full=%d", okN, fullN)
}

// TestTimerMode: in live mode (a positive FlushInterval) a lone op
// flushes on its own, in an epoch of its own, with no explicit Flush
// and far below the watermark.
func TestTimerMode(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10, FlushInterval: 2 * time.Millisecond})
	f := mustSubmit(t, s, OpInsert, 5)
	if res := mustResult(t, f); !res.OK {
		t.Fatalf("timer-mode insert: %+v", res)
	}
	if st := flushedStats(t, s, 1); st.Epochs != 1 {
		t.Fatalf("want one epoch of one op, stats %+v", st)
	}
}

// flushedStats returns s's counters once its epochs have recorded n
// executed ops: an op resolves before its epoch's counters are updated.
func flushedStats(t *testing.T, s *Server, n uint64) Stats {
	t.Helper()
	waitFor(t, "the epochs' counters", func() bool { return s.Stats().FlushedOps >= n })
	return s.Stats()
}

// holdEpoch starts a live server whose epochs each take cfg.FlushDelay,
// and returns it once the flusher has taken a lone first op and is
// holding that epoch open.
func holdEpoch(t *testing.T, cfg Config) (*Server, *Future) {
	t.Helper()
	cfg.FlushInterval = time.Millisecond
	s := manualServer(t, cfg)
	first := mustSubmit(t, s, OpInsert, 1)
	waitFor(t, "the flusher to take the first op", func() bool { return s.QueueDepth() == 0 })
	return s, first
}

// submitDuring admits n inserts (keys 2 through n+1) while the epoch
// of first is still running, failing the test if it ends first.
func submitDuring(t *testing.T, s *Server, first *Future, n int) []*Future {
	t.Helper()
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = mustSubmit(t, s, OpInsert, uint64(i+2))
	}
	select {
	case <-first.Done():
		t.Fatal("the held epoch ended before the next ops were admitted; raise FlushDelay")
	default:
	}
	return futs
}

// TestEagerNextEpoch: ops admitted while an epoch runs (held open by
// FlushDelay) flush together as exactly one next epoch, with no Flush.
func TestEagerNextEpoch(t *testing.T) {
	s, first := holdEpoch(t, Config{Size: 1 << 10, FlushDelay: 100 * time.Millisecond})
	futs := submitDuring(t, s, first, 10)
	for _, f := range append(futs, first) {
		if res := mustResult(t, f); !res.OK {
			t.Fatalf("insert: %+v", res)
		}
	}
	if st := flushedStats(t, s, 11); st.Epochs != 2 || st.Splits != 0 {
		t.Fatalf("want epochs of 1 then 10 ops, stats %+v", st)
	}
}

// TestEagerSplitsBacklog: a backlog admitted while an epoch runs that
// exceeds MaxBatch still splits into epochs of at most MaxBatch ops.
func TestEagerSplitsBacklog(t *testing.T) {
	s, first := holdEpoch(t, Config{Size: 1 << 10, MaxBatch: 8, QueueLimit: 64, FlushDelay: 50 * time.Millisecond})
	futs := submitDuring(t, s, first, 20)
	for _, f := range append(futs, first) {
		if res := mustResult(t, f); !res.OK {
			t.Fatalf("insert: %+v", res)
		}
	}
	// 1 op, then 20 cut at the watermark: 8, 8 and 4.
	if st := flushedStats(t, s, 21); st.Epochs != 4 || st.Splits != 2 {
		t.Fatalf("want epochs of 1, 8, 8 and 4 ops, stats %+v", st)
	}
}

// TestElementsSnapshotShared: every OpElements future of one epoch
// shares a single deterministic snapshot slice.
func TestElementsSnapshotShared(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10})
	for i := 0; i < 4; i++ {
		mustSubmit(t, s, OpInsert, uint64(i+1))
	}
	e1 := mustSubmit(t, s, OpElements, 0)
	e2 := mustSubmit(t, s, OpElements, 0)
	s.Flush()
	r1, r2 := mustResult(t, e1), mustResult(t, e2)
	if len(r1.Elems) != 4 || len(r2.Elems) != 4 {
		t.Fatalf("snapshot sizes %d/%d, want 4", len(r1.Elems), len(r2.Elems))
	}
	if &r1.Elems[0] != &r2.Elems[0] {
		t.Fatal("same-epoch Elements futures did not share one snapshot")
	}
}

// TestCloseDrainsAndStops: Close under load resolves every admitted
// future, rejects later submits with ErrClosed, and leaks no
// goroutines.
func TestCloseDrainsAndStops(t *testing.T) {
	before := runtime.NumGoroutine()

	s := NewServer(Config{Size: 1 << 12, MaxBatch: 16, QueueLimit: 256})
	var wg sync.WaitGroup
	futs := make(chan *Future, 1024)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 128; i++ {
				f, err := s.Submit(context.Background(), OpInsert, uint64(w*1000+i+1))
				if err != nil {
					if errors.Is(err, ErrClosed) || errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Errorf("Submit: %v", err)
					return
				}
				futs <- f
			}
		}(w)
	}
	// Close concurrently with the submitters: some get ErrClosed, every
	// admitted op must still resolve.
	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(futs)
	for f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatal("admitted future unresolved after Close")
		}
	}
	if _, err := s.Submit(context.Background(), OpFind, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Submit err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The flusher (and any AfterFunc machinery) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, now)
	}
}

// TestFutureWaitContext: Wait returns the caller's context error
// without cancelling the admitted op.
func TestFutureWaitContext(t *testing.T) {
	s := manualServer(t, Config{Size: 1 << 10})
	f := mustSubmit(t, s, OpInsert, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	s.Flush()
	if res := mustResult(t, f); !res.OK {
		t.Fatalf("op should still execute after abandoned Wait: %+v", res)
	}
	if !s.Table().Contains(9) {
		t.Fatal("element missing after abandoned Wait")
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{OpInsert: "insert", OpDelete: "delete", OpFind: "find", OpElements: "elements", Op(9): "unknown-op"}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("Op(%d).String() = %q, want %q", op, op.String(), s)
		}
	}
}

// TestDefaultShardsIgnoreHistory checks that a default-configured
// server's table stores one key set in one order, whatever the worker
// count and whatever an unrelated skewed bulk call did first.
func TestDefaultShardsIgnoreHistory(t *testing.T) {
	defer parallel.SetNumWorkers(parallel.SetNumWorkers(0))
	skew := make([]uint64, 1<<16)
	for i := range skew {
		skew[i] = 42
	}
	var want []uint64
	for _, workers := range []int{1, 2, 4} {
		parallel.SetNumWorkers(workers)
		for _, skewed := range []bool{false, true} {
			if skewed {
				core.NewShardedTable[core.SetOps](1<<20, 8).InsertAll(skew)
			}
			s := NewServer(Config{})
			futs := make([]*Future, 1000)
			for i := range futs {
				futs[i] = mustSubmit(t, s, OpInsert, uint64(i)*0x9e3779b97f4a7c15|1)
			}
			if err := s.Close(context.Background()); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for _, f := range futs {
				<-f.Done()
			}
			got := s.Table().Elements()
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("%d workers, skewed=%v: %d shards, Elements order differs", workers, skewed, s.Table().NumShards())
			}
		}
	}
}
