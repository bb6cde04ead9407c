// Command phload regenerates Figure 5: nanoseconds per operation on
// linearHash-D as a function of the table's load factor (the paper uses
// a 2^27-cell table, pre-filled to each load before timing).
//
// Usage:
//
//	phload [-size 2097152] [-n 200000] [-loads 0.1,0.2,...] [-reps 1]
//
// With -chaos it instead soaks the cross-schedule determinism oracle:
// fresh seeds every round over the full distribution × worker × fault
// profile grid until -soak elapses, exiting 1 with a minimized repro on
// the first divergence. Build with -tags chaos to arm fault injection;
// without the tag the soak still varies schedules via worker counts.
//
//	go run -tags chaos ./cmd/phload -chaos -soak 5m
//
// With -obs addr (in a -tags obs build) it serves live telemetry while
// running: /debug/phasestats (counter snapshot), /debug/vars (expvar)
// and /debug/pprof for profiling a long soak.
//
//	go run -tags 'chaos obs' ./cmd/phload -chaos -soak 5m -obs localhost:6060
//
// With -server it soaks the epoch serving path instead: mixed
// concurrent Insert/Find/Delete/Elements traffic with per-request
// deadlines over TCP loopback against a self-hosted phserver (or an
// external one via -addr), exiting 1 on any transport failure,
// unexpected status, queue-bound violation, or failed drain.
//
//	go run ./cmd/phload -server -soak 30s -deadline 2ms -clients 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"phasehash/internal/bench"
	"phasehash/internal/chaos"
	"phasehash/internal/detres"
	"phasehash/internal/obs"
)

func main() {
	var (
		size      = flag.Int("size", 1<<21, "table size in cells (paper: 2^27)")
		n         = flag.Int("n", 200_000, "operations timed per point")
		loads     = flag.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95", "comma-separated load factors")
		reps      = flag.Int("reps", 1, "repetitions (minimum reported)")
		chaosMode = flag.Bool("chaos", false, "run the determinism chaos soak instead of Figure 5")
		soak      = flag.Duration("soak", 30*time.Second, "chaos soak duration")
		chaosN    = flag.Int("chaosn", 1<<12, "elements per oracle workload in chaos mode")
		obsAddr   = flag.String("obs", "", "serve /debug/phasestats, /debug/vars and /debug/pprof on this address while running (needs a -tags obs build)")

		serverMode = flag.Bool("server", false, "soak the epoch serving path over TCP loopback instead of Figure 5")
		addr       = flag.String("addr", "", "server soak: drive this external phserver instead of self-hosting")
		clients    = flag.Int("clients", 4, "server soak: concurrent client connections")
		window     = flag.Int("window", 64, "server soak: in-flight requests per client")
		deadline   = flag.Duration("deadline", 5*time.Millisecond, "server soak: per-request deadline (0 = none)")
		maxBatch   = flag.Int("maxbatch", 1024, "server soak: self-hosted epoch watermark")
		queue      = flag.Int("queue", 0, "server soak: self-hosted queue limit (0 = 4x maxbatch)")
		block      = flag.Bool("block", false, "server soak: self-hosted blocking admission")
		flushDelay = flag.Duration("flushdelay", 0, "server soak: self-hosted artificial epoch delay (overload experiments)")
	)
	flag.Parse()

	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phload: -obs: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "phload: telemetry at http://%s/debug/phasestats\n", addr)
	}

	if *serverMode {
		serverSoak(serverSoakOpts{
			addr:       *addr,
			clients:    *clients,
			window:     *window,
			deadline:   *deadline,
			size:       *size,
			maxBatch:   *maxBatch,
			queue:      *queue,
			block:      *block,
			flushDelay: *flushDelay,
			soak:       *soak,
		})
		return
	}

	if *chaosMode {
		chaosSoak(*chaosN, *soak)
		return
	}

	ops := []bench.Op{bench.OpInsert, bench.OpFindRandom, bench.OpDeleteInserted, bench.OpElements}
	fmt.Printf("# Figure 5: ns per operation on linearHash-D, table size %d cells, %d ops per point\n", *size, *n)
	fmt.Printf("%-8s", "load")
	for _, op := range ops {
		fmt.Printf(" %16s", op)
	}
	fmt.Println()
	for _, part := range strings.Split(*loads, ",") {
		load, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || load <= 0 || load >= 1 {
			panic("phload: bad load factor " + part)
		}
		fmt.Printf("%-8.2f", load)
		for _, op := range ops {
			var best time.Duration
			for r := 0; r < *reps; r++ {
				t := bench.Figure5Point(op, load, *n, *size)
				if r == 0 || t < best {
					best = t
				}
			}
			den := float64(*n)
			if op == bench.OpElements {
				den = float64(*size) // elements scans the whole table
			}
			fmt.Printf(" %16.1f", float64(best.Nanoseconds())/den)
		}
		fmt.Println()
	}
}

// chaosSoak replays the oracle grid with fresh seeds each round until
// the soak duration elapses. Any divergence is fatal: the minimized
// repro (seed, distribution, worker count, fault profile, site trace)
// is printed and the process exits 1 so CI marks the run red.
func chaosSoak(n int, d time.Duration) {
	fmt.Printf("# chaos soak: determinism oracle, n=%d per workload, %v; fault injection armed: %v\n",
		n, d, chaos.Enabled)
	if !chaos.Enabled {
		fmt.Println("# (build with -tags chaos to arm fault injection; schedules still vary via worker counts)")
	}
	runners := []detres.Runner{
		detres.WordRunner{Capacity: 4 * n},
		detres.GrowRunner{Initial: 64},
	}
	deadline := time.Now().Add(d)
	round := 0
	for time.Now().Before(deadline) {
		cfg := detres.DefaultOracleConfig(n)
		// Fresh seeds every round so a long soak explores new workloads
		// instead of re-verifying the same grid.
		seeds := make([]uint64, len(cfg.Seeds))
		for i := range seeds {
			seeds[i] = uint64(round*len(cfg.Seeds)+i) + 1
		}
		cfg.Seeds = seeds
		cells := len(cfg.Dists) * len(cfg.Seeds) * len(cfg.Workers) * len(cfg.Profiles)
		for _, r := range runners {
			if div := detres.RunOracle(r, cfg); div != nil {
				fmt.Println("DETERMINISM DIVERGENCE")
				fmt.Println(div.Error())
				os.Exit(1)
			}
		}
		round++
		fmt.Printf("round %d ok: seeds [%d,%d], %d cells per runner\n", round, seeds[0], seeds[len(seeds)-1], cells)
	}
	fmt.Printf("# chaos soak passed: %d rounds, no divergence\n", round)
}
