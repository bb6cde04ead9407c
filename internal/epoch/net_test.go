package epoch

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasehash/internal/core"
)

// startWireServer serves a fresh epoch server on a loopback listener
// and returns its address plus a shutdown func.
func startWireServer(t testing.TB, cfg Config) (string, *Server, func()) {
	t.Helper()
	s := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := Serve(ctx, ln, s); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	shutdown := func() {
		cancel()
		<-serveDone
		closeCtx, closeCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer closeCancel()
		if err := s.Close(closeCtx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
	return ln.Addr().String(), s, shutdown
}

func TestWireRoundTrip(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 12, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	for _, k := range []uint64{11, 22, 33} {
		res, err := c.Call(OpInsert, k, time.Second)
		if err != nil || res.Err != nil || !res.OK {
			t.Fatalf("insert %d: res=%+v err=%v", k, res, err)
		}
	}
	if res, _ := c.Call(OpFind, 22, time.Second); !res.OK || res.Value != 22 {
		t.Fatalf("find hit: %+v", res)
	}
	if res, _ := c.Call(OpFind, 99, time.Second); res.OK || res.Err != nil {
		t.Fatalf("find miss: %+v", res)
	}
	res, _ := c.Call(OpElements, 0, time.Second)
	if res.Err != nil || len(res.Elems) != 3 {
		t.Fatalf("elements: %+v", res)
	}
	got := append([]uint64(nil), res.Elems...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, want := range []uint64{11, 22, 33} {
		if got[i] != want {
			t.Fatalf("elements = %v", got)
		}
	}
	if res, _ := c.Call(OpDelete, 11, time.Second); !res.OK {
		t.Fatalf("delete: %+v", res)
	}
	if res, _ := c.Call(OpFind, 11, time.Second); res.OK {
		t.Fatalf("find after delete: %+v", res)
	}
}

// TestWirePipelined drives many concurrent in-flight requests through
// one connection and checks every response matches its request.
func TestWirePipelined(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 14, MaxBatch: 64, QueueLimit: 4096, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	const n = 500
	futs := make([]*ClientFuture, n)
	for i := 0; i < n; i++ {
		futs[i], err = c.Do(OpInsert, uint64(i+1), time.Second)
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
	}
	for i, f := range futs {
		<-f.Done()
		if res := f.Result(); res.Err != nil || !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}
	for i := 0; i < n; i++ {
		futs[i], err = c.Do(OpFind, uint64(i+1), time.Second)
		if err != nil {
			t.Fatalf("Do(find %d): %v", i, err)
		}
	}
	for i, f := range futs {
		<-f.Done()
		if res := f.Result(); !res.OK || res.Value != uint64(i+1) {
			t.Fatalf("find %d: %+v", i, res)
		}
	}
}

// TestWireOverloadStatus: a saturated fail-fast server refuses with
// StatusOverloaded on the wire instead of stalling the connection.
func TestWireOverloadStatus(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{
		Size: 1 << 12, MaxBatch: 8, QueueLimit: 8,
		FlushInterval: time.Millisecond, FlushDelay: 20 * time.Millisecond,
	})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	futs := make([]*ClientFuture, 0, 256)
	for i := 0; i < 256; i++ {
		f, err := c.Do(OpInsert, uint64(i+1), 0)
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
		futs = append(futs, f)
	}
	okN, shedN := 0, 0
	for i, f := range futs {
		<-f.Done()
		switch res := f.Result(); {
		case res.Err == nil && res.OK:
			okN++
		case errors.Is(res.Err, ErrOverloaded):
			shedN++
		default:
			t.Fatalf("future %d: %+v", i, res)
		}
	}
	if shedN == 0 {
		t.Fatal("no StatusOverloaded under 32x queue pressure")
	}
	if okN == 0 {
		t.Fatal("everything shed: no goodput at all")
	}
	t.Logf("ok=%d overloaded=%d", okN, shedN)
}

// TestWireDeadlineStatus: a request whose deadline cannot be met comes
// back as StatusDeadline, not a hang.
func TestWireDeadlineStatus(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{
		Size: 1 << 12, FlushInterval: time.Millisecond, FlushDelay: 50 * time.Millisecond,
	})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Prime an epoch so the next request waits behind a slow flush.
	if _, err := c.Do(OpInsert, 1, 0); err != nil {
		t.Fatalf("prime: %v", err)
	}
	f, err := c.Do(OpInsert, 2, 100*time.Microsecond)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	<-f.Done()
	if res := f.Result(); !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("res = %+v, want DeadlineExceeded", res)
	}
}

// TestWireReservedStatus: inserting the reserved empty element is
// refused at admission and surfaces as StatusReserved.
func TestWireReservedStatus(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 10, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	res, err := c.Call(OpInsert, core.Empty, time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !errors.Is(res.Err, core.ErrReservedKey) {
		t.Fatalf("res = %+v, want ErrReservedKey", res)
	}
}

// TestWireShutdownMidTraffic: shutting the server down under live
// client traffic must not wedge either side — the client sees clean
// refusals or transport EOF, and shutdown completes.
func TestWireShutdownMidTraffic(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 12, FlushInterval: time.Millisecond})

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	stop := make(chan struct{})
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Do(OpInsert, i, 10*time.Millisecond); err != nil {
				return // transport closed by shutdown: expected
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown wedged under live traffic")
	}
	close(stop)
	select {
	case <-clientDone:
	case <-time.After(5 * time.Second):
		t.Fatal("client goroutine wedged after shutdown")
	}
}

// TestWireTimedRequestsNoGoroutinePerRequest holds 1000 timed requests
// pending on a manual-flush server and asserts the serving side keeps a
// constant goroutine count per connection rather than one per request
// (a request's deadline is a time the flusher compares, not a timer),
// then flushes and checks every response arrives.
func TestWireTimedRequestsNoGoroutinePerRequest(t *testing.T) {
	const conns, perConn = 4, 250 // all 1000 requests are pending at once before the flush
	before := runtime.NumGoroutine()
	addr, s, shutdown := startWireServer(t, Config{Size: 1 << 14})
	defer shutdown()

	var futs []*ClientFuture
	for c := 0; c < conns; c++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cl.Close()
		for i := 0; i < perConn; i++ {
			f, err := cl.Do(OpInsert, uint64(c*perConn+i+1), time.Minute)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			futs = append(futs, f)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() < conns*perConn {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", s.QueueDepth(), conns*perConn)
		}
		time.Sleep(time.Millisecond)
	}
	// Per connection: the client reader, serveConn and its writer; plus
	// the flusher and the accept loop. 100 leaves slack for runtime
	// helpers while staying far below one goroutine per request.
	if grew := runtime.NumGoroutine() - before; grew > 100 {
		t.Fatalf("goroutines grew by %d with %d timed requests pending", grew, conns*perConn)
	}

	s.Flush()
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("response %d never arrived", i)
		}
		if res := f.Result(); res.Err != nil || !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}
}

// serveUntilStuck serves a fresh live server, lets stick leave a
// client connection stuck, then cancels Serve's context. Serve must
// return within 5 s, and Close must still drain every admitted op:
// each one executes or is shed at flush, and none stays queued.
func serveUntilStuck(t *testing.T, stick func(t *testing.T, addr string)) {
	s := NewServer(Config{Size: 1 << 10, MaxBatch: 64, QueueLimit: 256, FlushInterval: time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, s) }()

	stick(t, ln.Addr().String())
	cancel()
	select {
	case err := <-served:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running 5s after its context ended")
	}
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer closeCancel()
	if err := s.Close(closeCtx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Admitted == 0 || st.Admitted != st.FlushedOps+st.ShedDeadline || s.QueueDepth() != 0 {
		t.Fatalf("admitted ops not drained: queue %d, stats %+v", s.QueueDepth(), st)
	}
}

// TestWireServeCancelIdleClient: a client that completes one round
// trip and then sends nothing leaves its connection's reader parked;
// cancelling Serve's context still ends it.
func TestWireServeCancelIdleClient(t *testing.T) {
	serveUntilStuck(t, func(t *testing.T, addr string) {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		if res, err := c.Call(OpInsert, 7, time.Second); err != nil || !res.OK {
			t.Fatalf("insert: res=%+v err=%v", res, err)
		}
	})
}

// TestWireServeCancelUnreadClient: a client that keeps writing
// requests and never reads a response blocks its connection's writer,
// then its reader (the backlog fills); cancelling Serve's context
// still ends both.
func TestWireServeCancelUnreadClient(t *testing.T) {
	serveUntilStuck(t, func(t *testing.T, addr string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.(*net.TCPConn).SetReadBuffer(4096)
		var burst []byte
		for i := range 512 {
			burst = appendFrame(burst, uint64(i), OpFind, 1, 0)
		}
		// Write until a write stalls: the server has stopped reading,
		// so its writer is blocked on the responses this client never
		// reads.
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("server kept reading for 30s from a client that never reads")
			}
			conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			if _, err := conn.Write(burst); err != nil {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("Write: %v", err)
				}
				return
			}
		}
	})
}

// appendFrame appends one request frame to buf.
func appendFrame(buf []byte, id uint64, op Op, key uint64, timeoutUs uint32) []byte {
	buf = append(buf, make([]byte, reqFrameLen)...)
	putFrame(buf[len(buf)-reqFrameLen:], id, op, key, timeoutUs)
	return buf
}

// wireResponse is one decoded response frame.
type wireResponse struct {
	id     uint64
	status uint8
	value  uint64
	elems  []uint64
}

// readResponse decodes one response frame and its payload.
func readResponse(r io.Reader) (wireResponse, error) {
	var hdr [respFrameLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wireResponse{}, err
	}
	resp := wireResponse{
		id:     binary.LittleEndian.Uint64(hdr[0:8]),
		status: hdr[8],
		value:  binary.LittleEndian.Uint64(hdr[9:17]),
	}
	word := make([]byte, 8)
	for n := binary.LittleEndian.Uint32(hdr[17:21]); n > 0; n-- {
		if _, err := io.ReadFull(r, word); err != nil {
			return wireResponse{}, err
		}
		resp.elems = append(resp.elems, binary.LittleEndian.Uint64(word))
	}
	return resp, nil
}

// waitFor polls cond until it holds or 10s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBadOpRefused: an op code above OpElements is refused at
// admission, in process and over the wire, and never reaches the
// table's read phase.
func TestBadOpRefused(t *testing.T) {
	addr, s, shutdown := startWireServer(t, Config{Size: 1 << 10})
	defer shutdown()
	mustSubmit(t, s, OpInsert, 77)
	s.Flush()

	if f, err := s.Submit(context.Background(), Op(9), 77); !errors.Is(err, ErrBadOp) {
		s.Flush()
		if f != nil {
			t.Fatalf("Submit(Op(9)) admitted: err = %v, result %+v", err, mustResult(t, f))
		}
		t.Fatalf("Submit(Op(9)) err = %v, want ErrBadOp", err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	f, err := c.Do(Op(9), 77, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	select {
	case <-f.Done():
	case <-time.After(100 * time.Millisecond):
		s.Flush() // an admitted op waits for a flush; a refusal must not
		<-f.Done()
	}
	if res := f.Result(); !errors.Is(res.Err, ErrBadOp) || len(res.Elems) != 0 {
		t.Fatalf("wire Op(9): err = %v, %d elements; want ErrBadOp and none", res.Err, len(res.Elems))
	}
	if st := s.Stats(); st.ReadOps != 0 || st.Admitted != 1 {
		t.Fatalf("stats after refused ops: %+v", st)
	}
}

// TestClientBoundedPayloadAlloc: a response header claiming 1<<27
// elements, followed by nothing, fails the pending future with a
// transport error without the client allocating for the claim.
func TestClientBoundedPayloadAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req [reqFrameLen]byte
		if _, err := io.ReadFull(conn, req[:]); err != nil {
			return
		}
		var hdr [respFrameLen]byte
		copy(hdr[0:8], req[0:8])
		binary.LittleEndian.PutUint32(hdr[17:21], 1<<27)
		conn.Write(hdr[:])
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := c.Do(OpElements, 0, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("future never resolved after the server closed")
	}
	runtime.ReadMemStats(&after)
	if res := f.Result(); res.Err == nil || errors.Is(res.Err, ErrBadOp) {
		t.Fatalf("res = %+v, want a transport error", res)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("client allocated %d bytes for an empty payload claiming 1<<27 elements", grew)
	}
}

// TestWireInflightNotCapped: one connection keeps 4096 requests in
// flight; all of them reach the admission queue, so a single client can
// fill an epoch to the watermark.
func TestWireInflightNotCapped(t *testing.T) {
	const n = 4096
	addr, s, shutdown := startWireServer(t, Config{Size: 1 << 14, MaxBatch: 1 << 14})
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	futs := make([]*ClientFuture, n)
	for i := range futs {
		if futs[i], err = c.Do(OpInsert, uint64(i+1), 0); err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stopped at %d of %d in-flight requests", s.QueueDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
	s.Flush()
	for i, f := range futs {
		<-f.Done()
		if res := f.Result(); res.Err != nil || !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}
	if st := s.Stats(); st.Epochs != 1 || st.FlushedOps != n {
		t.Fatalf("want one epoch of %d ops, stats %+v", n, st)
	}
}

// TestWireBlockPartialRead: in Block mode a read that only partly fits
// the queue is admitted in order; an op whose own deadline passes while
// it waits is refused with StatusDeadline, the ops before it succeed,
// and the op after it is admitted once a flush makes room.
func TestWireBlockPartialRead(t *testing.T) {
	addr, s, shutdown := startWireServer(t, Config{Size: 1 << 12, QueueLimit: 4, Block: true})
	defer shutdown()
	prefill := []*Future{mustSubmit(t, s, OpInsert, 1000), mustSubmit(t, s, OpInsert, 1001)}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	var req []byte
	req = appendFrame(req, 1, OpInsert, 1, 0)
	req = appendFrame(req, 2, OpInsert, 2, 0)
	req = appendFrame(req, 3, OpInsert, 3, 20_000) // 20ms: expires while blocked
	req = appendFrame(req, 4, OpInsert, 4, 0)
	if _, err := conn.Write(req); err != nil {
		t.Fatalf("Write: %v", err)
	}

	waitFor(t, "ops 1 and 2 to fill the queue", func() bool { return s.Stats().Admitted == 4 })
	waitFor(t, "op 3's deadline to refuse it", func() bool { return s.Stats().ShedOverload == 1 })
	if d := s.QueueDepth(); d != 4 {
		t.Fatalf("queue depth %d with op 4 blocked, want 4", d)
	}
	s.Flush() // makes room: op 4 is admitted
	waitFor(t, "op 4 to be admitted", func() bool { return s.QueueDepth() == 1 })
	s.Flush()

	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	want := []uint8{StatusOK, StatusOK, StatusDeadline, StatusOK}
	for i, st := range want {
		resp, err := readResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if resp.id != uint64(i+1) || resp.status != st {
			t.Fatalf("response %d: id %d status %d, want id %d status %d", i+1, resp.id, resp.status, i+1, st)
		}
	}
	for _, f := range prefill {
		if res := mustResult(t, f); !res.OK {
			t.Fatalf("prefill: %+v", res)
		}
	}
	for k, in := range map[uint64]bool{1: true, 2: true, 3: false, 4: true} {
		if s.Table().Contains(k) != in {
			t.Fatalf("key %d present = %v, want %v", k, !in, in)
		}
	}
}

// BenchmarkWireSaturated is the wire path's per-layer number: two
// loopback connections keep 4096 requests each outstanding against a
// server with phserver's defaults (50% insert / 25% find / 25% delete
// over 2^18 keys). It reports Mop/s and allocs/req, the allocations of
// client and server together per request as a fraction (the testing
// package prints allocs/op rounded down to an integer, and the server
// allocates per wire read, not per request); the client writes
// pre-framed bursts and allocates nothing per request. ops/epoch is the
// mean fill of the epochs flushed during the timed run, against the
// MaxBatch watermark of 4096.
func BenchmarkWireSaturated(b *testing.B) {
	const conns, window, burst = 2, 4096, 512
	addr, s, shutdown := startWireServer(b, Config{Size: 1 << 20, MaxBatch: 4096, FlushInterval: time.Millisecond})
	defer shutdown()
	cs := make([]net.Conn, conns)
	for c := range cs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		cs[c] = conn
	}
	ops := [4]Op{OpInsert, OpInsert, OpFind, OpDelete}

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st0 := s.Stats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c, conn := range cs {
		n := b.N / conns
		if c == 0 {
			n += b.N % conns
		}
		var recv atomic.Int64
		wake := make(chan struct{}, 1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, burst*reqFrameLen)
			for sent := 0; sent < n; {
				room := window - (sent - int(recv.Load()))
				if room <= 0 {
					<-wake
					continue
				}
				buf = buf[:0]
				for k := min(room, burst, n-sent); k > 0; k-- {
					id := uint64(c)<<32 | uint64(sent)
					h := id * 0x9e3779b97f4a7c15
					buf = appendFrame(buf, id, ops[h>>62], 1+(h>>20)%(1<<18), 0)
					sent++
				}
				if _, err := conn.Write(buf); err != nil {
					b.Errorf("Write: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			var hdr [respFrameLen]byte
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					b.Errorf("Read: %v", err)
					return
				}
				if hdr[8] > StatusMiss {
					b.Errorf("request %d: status %d", i, hdr[8])
					return
				}
				recv.Add(1)
				if br.Buffered() < respFrameLen {
					notify(wake)
				}
			}
			notify(wake)
		}()
	}
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/req")
	b.ReportMetric(float64(st.FlushedOps-st0.FlushedOps)/float64(max(st.Epochs-st0.Epochs, 1)), "ops/epoch")
}
