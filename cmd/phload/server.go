package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasehash/internal/core"
	"phasehash/internal/epoch"
	"phasehash/internal/obs"
)

// serverSoakOpts carries the -server soak mode knobs from main.
type serverSoakOpts struct {
	addr       string        // external phserver; empty = self-host on loopback
	clients    int           // concurrent client connections
	window     int           // in-flight requests per client
	deadline   time.Duration // per-request deadline (0 = none)
	size       int           // self-hosted table capacity
	maxBatch   int           // self-hosted epoch watermark
	queue      int           // self-hosted admission queue limit
	block      bool          // self-hosted blocking admission
	flushDelay time.Duration // self-hosted artificial epoch delay
	soak       time.Duration
}

// soakTallies aggregates per-status response counts across clients,
// plus submit-to-complete latencies of the ops that completed (so the
// overload experiments can report p50/p99 alongside goodput and shed
// counts).
type soakTallies struct {
	ok, miss, overloaded, deadline, full, cancelled, closed, other atomic.Uint64

	mu        sync.Mutex
	latencies []time.Duration
}

func (tl *soakTallies) count(res epoch.Result, lat time.Duration) {
	switch {
	case res.Err == nil && res.OK:
		tl.ok.Add(1)
	case res.Err == nil:
		tl.miss.Add(1)
	case errors.Is(res.Err, epoch.ErrOverloaded):
		tl.overloaded.Add(1)
	case errors.Is(res.Err, context.DeadlineExceeded):
		tl.deadline.Add(1)
	case errors.Is(res.Err, core.ErrFull):
		tl.full.Add(1)
	case errors.Is(res.Err, context.Canceled):
		tl.cancelled.Add(1)
	case errors.Is(res.Err, epoch.ErrClosed):
		tl.closed.Add(1)
	default:
		tl.other.Add(1)
	}
	if res.Err == nil {
		tl.mu.Lock()
		tl.latencies = append(tl.latencies, lat)
		tl.mu.Unlock()
	}
}

// quantiles returns p50/p99 submit-to-complete latency over the
// completed ops (zeroes if none completed).
func (tl *soakTallies) quantiles() (p50, p99 time.Duration, n int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.latencies) == 0 {
		return 0, 0, 0
	}
	sort.Slice(tl.latencies, func(i, j int) bool { return tl.latencies[i] < tl.latencies[j] })
	return tl.latencies[len(tl.latencies)/2], tl.latencies[len(tl.latencies)*99/100], len(tl.latencies)
}

// serverSoak drives a phserver over TCP with mixed concurrent traffic
// under per-request deadlines for the soak duration, then (for a
// self-hosted server) drains it and cross-checks the table against an
// Elements round trip. Any transport failure or unexpected status is
// fatal: the soak exists to prove the serving path degrades cleanly,
// not just that it is fast.
func serverSoak(o serverSoakOpts) {
	var (
		srv      *epoch.Server
		serveErr = make(chan error, 1)
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := o.addr
	if addr == "" {
		srv = epoch.NewServer(epoch.Config{
			Size:          o.size,
			MaxBatch:      o.maxBatch,
			QueueLimit:    o.queue,
			FlushInterval: time.Millisecond,
			Block:         o.block,
			FlushDelay:    o.flushDelay,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "phload: -server listen: %v\n", err)
			os.Exit(1)
		}
		addr = ln.Addr().String()
		go func() { serveErr <- epoch.Serve(ctx, ln, srv) }()
		fmt.Printf("# server soak: self-hosted phserver on %s (size=%d maxbatch=%d queue=%d block=%v flushdelay=%v)\n",
			addr, o.size, o.maxBatch, o.queue, o.block, o.flushDelay)
	} else {
		fmt.Printf("# server soak: driving external phserver at %s\n", addr)
	}
	fmt.Printf("# %d clients x %d in-flight, per-request deadline %v, %v\n", o.clients, o.window, o.deadline, o.soak)

	var (
		tallies  soakTallies
		fatalErr atomic.Value
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
	for cl := 0; cl < o.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			if err := soakClient(addr, cl, o, stop, &tallies); err != nil {
				fatalErr.CompareAndSwap(nil, err)
			}
		}(cl)
	}
	time.Sleep(o.soak)
	close(stop)
	wg.Wait()

	if srv != nil {
		// Graceful shutdown: stop accepting, drain in-flight epochs.
		cancel()
		if err := <-serveErr; err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "phload: serve: %v\n", err)
			os.Exit(1)
		}
		drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer drainCancel()
		if err := srv.Close(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "phload: server drain: %v\n", err)
			os.Exit(1)
		}
	}

	total := tallies.ok.Load() + tallies.miss.Load() + tallies.overloaded.Load() +
		tallies.deadline.Load() + tallies.full.Load() + tallies.cancelled.Load() + tallies.closed.Load()
	fmt.Printf("responses: %d total; ok=%d miss=%d shed(overload=%d deadline=%d) full=%d cancelled=%d closed=%d\n",
		total, tallies.ok.Load(), tallies.miss.Load(), tallies.overloaded.Load(),
		tallies.deadline.Load(), tallies.full.Load(), tallies.cancelled.Load(), tallies.closed.Load())
	if p50, p99, n := tallies.quantiles(); n > 0 {
		fmt.Printf("latency: p50=%v p99=%v over %d completed ops (%.0f ops/s goodput)\n",
			p50.Round(time.Microsecond), p99.Round(time.Microsecond), n, float64(n)/o.soak.Seconds())
	}
	if srv != nil {
		st := srv.Stats()
		fmt.Printf("server: admitted=%d epochs=%d splits=%d flushed=%d maxqueue=%d count=%d\n",
			st.Admitted, st.Epochs, st.Splits, st.FlushedOps, st.MaxQueue, srv.Table().Count())
		fmt.Printf("server: op mix insert=%d delete=%d read=%d; shard imbalance gauge %d pm (always-on counter core)\n",
			st.InsertOps, st.DeleteOps, st.ReadOps, obs.CoreMaxShardImbalancePm())
		if st.MaxQueue > o.queueLimitEffective() {
			fmt.Fprintf(os.Stderr, "phload: FAIL: queue depth %d exceeded limit %d\n", st.MaxQueue, o.queueLimitEffective())
			os.Exit(1)
		}
	}
	if err, _ := fatalErr.Load().(error); err != nil {
		fmt.Fprintf(os.Stderr, "phload: FAIL: %v\n", err)
		os.Exit(1)
	}
	if n := tallies.other.Load(); n != 0 {
		fmt.Fprintf(os.Stderr, "phload: FAIL: %d responses with unexpected status\n", n)
		os.Exit(1)
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "phload: FAIL: soak produced no responses")
		os.Exit(1)
	}
	fmt.Println("# server soak passed")
}

// queueLimitEffective mirrors epoch.Config's QueueLimit default.
func (o serverSoakOpts) queueLimitEffective() int {
	if o.queue > 0 {
		return o.queue
	}
	return 4 * o.maxBatch
}

// soakClient runs one connection's mixed-op pipeline until stop
// closes. The op mix is deterministic per client id; keys stay in a
// modest range so finds hit and deletes contend with inserts.
func soakClient(addr string, id int, o serverSoakOpts, stop <-chan struct{}, tl *soakTallies) error {
	c, err := epoch.Dial(addr)
	if err != nil {
		return fmt.Errorf("client %d: dial: %w", id, err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
	type pending struct {
		f  *epoch.ClientFuture
		t0 time.Time
	}
	inflight := make([]pending, 0, o.window)
	// settle tallies resolved futures; with block it drains them all.
	settle := func(block bool) {
		kept := inflight[:0]
		for _, p := range inflight {
			if block {
				<-p.f.Done()
			}
			select {
			case <-p.f.Done():
				tl.count(p.f.Result(), time.Since(p.t0))
			default:
				kept = append(kept, p)
			}
		}
		inflight = kept
	}
	for {
		select {
		case <-stop:
			settle(true)
			return nil
		default:
		}
		var op epoch.Op
		switch p := rng.Intn(100); {
		case p < 50:
			op = epoch.OpInsert
		case p < 75:
			op = epoch.OpFind
		case p < 99:
			op = epoch.OpDelete
		default:
			op = epoch.OpElements
		}
		key := uint64(rng.Intn(1<<16) + 1)
		t0 := time.Now()
		f, err := c.Do(op, key, o.deadline)
		if err != nil {
			// The transport died mid-soak: fatal unless we're stopping.
			select {
			case <-stop:
				return nil
			default:
				return fmt.Errorf("client %d: %w", id, err)
			}
		}
		inflight = append(inflight, pending{f, t0})
		if len(inflight) >= o.window {
			<-inflight[0].f.Done()
			settle(false)
		}
	}
}
