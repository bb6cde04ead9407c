package epoch

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"phasehash/internal/core"
)

// startWireServer serves a fresh epoch server on a loopback listener
// and returns its address plus a shutdown func.
func startWireServer(t *testing.T, cfg Config) (string, *Server, func()) {
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
// (each request's deadline timer is released by the response writer),
// then flushes and checks every response arrives.
func TestWireTimedRequestsNoGoroutinePerRequest(t *testing.T) {
	const conns, perConn = 4, 250 // perConn stays under serveConn's queue bound
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
