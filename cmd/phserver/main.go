// Command phserver serves a phase-batched epoch scheduler
// (internal/epoch) over TCP: any number of clients submit mixed
// Insert/Find/Delete/Elements traffic, the server buffers it into
// per-phase batches and flushes each epoch through the sharded bulk
// kernels. Epochs are self-clocking: the flusher cuts one as soon as it
// is idle and requests are pending, so batches grow with load and no
// timer holds a request back. See internal/epoch and DESIGN.md §12 for
// the scheduling and robustness contract.
//
// Usage:
//
//	phserver [-addr :9191] [-size 1048576] [-shards 0]
//	         [-maxbatch 4096] [-queue 16384]
//	         [-block] [-flushdelay 0]
//
// -shards 0 = default: 8, fewer for small tables, on every machine.
// -block switches admission from fail-fast (overloaded submits get an
// immediate StatusOverloaded) to block-with-deadline. -flushdelay is
// the overload-experiment knob: an artificial per-epoch delay that
// simulates a slower backend (EXPERIMENTS.md drives the degradation
// table with it).
//
// With -obs addr (in a -tags obs build) live telemetry — including the
// epoch counters, the admit-to-complete latency histogram and the
// max-queue-depth gauge — is served on /debug/phasestats.
//
// On SIGINT/SIGTERM the listener closes, admission stops with
// StatusClosed, and in-flight epochs drain (bounded by -draintimeout)
// before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"phasehash/internal/epoch"
	"phasehash/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:9191", "listen address")
		size         = flag.Int("size", 1<<20, "table capacity in cells")
		shards       = flag.Int("shards", 0, "shard count (0 = default: 8, fewer for small tables)")
		maxBatch     = flag.Int("maxbatch", 4096, "epoch size watermark (ops per flushed epoch)")
		queue        = flag.Int("queue", 0, "admission queue limit (0 = 4x maxbatch)")
		block        = flag.Bool("block", false, "block overloaded submits until space or their deadline (default: fail fast)")
		flushDelay   = flag.Duration("flushdelay", 0, "artificial per-epoch delay (overload experiments)")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "shutdown drain bound")
		obsAddr      = flag.String("obs", "", "serve /debug/phasestats on this address (needs a -tags obs build)")
	)
	flag.Parse()

	if *obsAddr != "" {
		a, err := obs.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phserver: -obs: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "phserver: telemetry at http://%s/debug/phasestats\n", a)
	}

	srv := epoch.NewServer(epoch.Config{
		Size:          *size,
		Shards:        *shards,
		MaxBatch:      *maxBatch,
		QueueLimit:    *queue,
		FlushInterval: 1, // live mode: only the sign is read
		Block:         *block,
		FlushDelay:    *flushDelay,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phserver: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "phserver: serving on %s (size=%d maxbatch=%d queue=%d block=%v)\n",
		ln.Addr(), *size, *maxBatch, *queue, *block)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := epoch.Serve(ctx, ln, srv); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "phserver: serve: %v\n", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Close(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "phserver: drain: %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"phserver: drained; admitted=%d epochs=%d splits=%d ops=%d shed(overload=%d deadline=%d) cancelled=%d full=%d maxqueue=%d count=%d\n",
		st.Admitted, st.Epochs, st.Splits, st.FlushedOps, st.ShedOverload, st.ShedDeadline,
		st.Cancelled, st.InsertFull, st.MaxQueue, srv.Table().Count())
}
