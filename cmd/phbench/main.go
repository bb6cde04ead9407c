// Command phbench regenerates the paper's Table 1 (hash-table operation
// times across nine implementations and six distributions), Table 2
// (insertion vs. raw scatter) and the data series behind Figure 3.
//
// Usage:
//
//	phbench [-n 1000000] [-size 4194304] [-op insert] [-dist all]
//	        [-tables all] [-table2] [-figure3] [-reps 1] [-stats]
//
// With no selection flags it prints all six Table 1 sub-tables. Times
// are seconds, in the paper's layout: one row per implementation, (1)
// and (P) columns per distribution, where P is GOMAXPROCS.
//
// In binaries built with -tags obs, -stats prints a telemetry line
// under each Table 1 row: the mean probe length (from the counter
// core) and the p99 probe-length histogram bucket edge for that cell.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"phasehash/internal/bench"
	"phasehash/internal/obs"
	"phasehash/internal/sequence"
	"phasehash/internal/tables"
)

func main() {
	var (
		n       = flag.Int("n", 1_000_000, "operations per measurement (paper: 10^8)")
		size    = flag.Int("size", 0, "table size in cells (default: next pow2 >= 8n/3, the paper's load ~1/3)")
		opFlag  = flag.String("op", "all", "operation: insert|find-random|find-inserted|delete-random|delete-inserted|elements|all")
		dist    = flag.String("dist", "all", "distribution name or 'all'")
		kinds   = flag.String("tables", "all", "comma-separated table kinds or 'all'")
		table2  = flag.Bool("table2", false, "run Table 2 (random writes vs insertion) instead")
		figure3 = flag.Bool("figure3", false, "print Figure 3's two panels (parallel times, bar-chart series)")
		reps    = flag.Int("reps", 1, "repetitions (minimum time reported)")
		stats   = flag.Bool("stats", false, "print mean/p99 probe length under each cell (needs a -tags obs build)")
		mem     = flag.Bool("mem", false, "print a backing-array bytes/elem column per selected table kind and exit")
	)
	flag.Parse()
	if *stats && !obs.Enabled {
		fmt.Fprintln(os.Stderr, "phbench: -stats needs a build with -tags obs (the probe histograms are compiled out of this binary); ignoring")
		*stats = false
	}
	if *size == 0 {
		*size = ceilPow2(*n * 8 / 3)
	}
	if *mem {
		runMem(parseKinds(*kinds), *n, *size)
		return
	}
	if *table2 {
		runTable2(*n, *reps)
		return
	}
	if *figure3 {
		runFigure3(*n, *size, *reps)
		return
	}

	ops := bench.Ops
	if *opFlag != "all" {
		ops = []bench.Op{bench.Op(*opFlag)}
	}
	dists := sequence.AllDistributions
	if *dist != "all" {
		dists = []sequence.Distribution{sequence.Distribution(*dist)}
	}
	kindList := parseKinds(*kinds)

	fmt.Printf("# Table 1: times (seconds) for %d hash table operations; table size %d cells\n", *n, *size)
	fmt.Printf("# machine: GOMAXPROCS=%d (paper: 40 cores / 80 hyperthreads)\n\n", runtime.GOMAXPROCS(0))
	for _, op := range ops {
		fmt.Printf("## %s\n", op)
		header := []string{fmt.Sprintf("%-18s", "table")}
		for _, d := range dists {
			header = append(header, fmt.Sprintf("%22s", shortDist(d)))
		}
		fmt.Println(strings.Join(header, " "))
		for _, kind := range kindList {
			row := []string{fmt.Sprintf("%-18s", kind)}
			statsRow := []string{fmt.Sprintf("%-18s", "  └ probes")}
			for _, d := range dists {
				if *stats {
					obs.Reset()
				}
				t := minRep(*reps, func() time.Duration {
					return bench.Table1Cell(kind, d, op, *n, *size)
				})
				if kind.IsSerial() {
					row = append(row, fmt.Sprintf("%15s (1)   ", fmtSec(t)))
				} else {
					row = append(row, fmt.Sprintf("%15s (%dp)  ", fmtSec(t), runtime.GOMAXPROCS(0)))
				}
				if *stats {
					s := obs.TakeSnapshot()
					statsRow = append(statsRow, fmt.Sprintf("%22s", cellStats(&s, op)))
				}
			}
			fmt.Println(strings.Join(row, " "))
			if *stats {
				fmt.Println(strings.Join(statsRow, " "))
			}
		}
		fmt.Println()
	}
}

// runMem prints the bytes/elem column: backing-array bytes at the
// benchmark's table size over the n elements it holds. Kinds without
// memory accounting (chained tables, whose footprint tracks the live
// set; the comparison baselines) print "-".
func runMem(kinds []tables.Kind, n, size int) {
	fmt.Printf("# memory: backing-array bytes per element; %d elements, %d cells\n", n, size)
	fmt.Printf("%-22s %12s\n", "table", "bytes/elem")
	for _, kind := range kinds {
		if bpe := bench.BytesPerElem(kind, n, size); bpe > 0 {
			fmt.Printf("%-22s %12.2f\n", kind, bpe)
		} else {
			fmt.Printf("%-22s %12s\n", kind, "-")
		}
	}
}

func runTable2(n, reps int) {
	size := ceilPow2(3 * n) // the paper's load-1/3 configuration
	fmt.Printf("# Table 2: times (seconds) for %d random writes (scatter); %d slots\n", n, size)
	fmt.Printf("%-28s %12s %12s\n", "memory operation", "(1)", fmt.Sprintf("(%dp)", runtime.GOMAXPROCS(0)))
	for _, row := range bench.Table2Rows {
		ser := minRep(reps, func() time.Duration { return bench.Table2Cell(row, n, size, false) })
		par := minRep(reps, func() time.Duration { return bench.Table2Cell(row, n, size, true) })
		fmt.Printf("%-28s %12s %12s\n", row, fmtSec(ser), fmtSec(par))
	}
}

func runFigure3(n, size, reps int) {
	panels := []struct {
		title string
		dist  sequence.Distribution
	}{
		{"Figure 3(a): randomSeq-int", sequence.RandomInt},
		{"Figure 3(b): trigramSeq-pairInt", sequence.TrigramPairInt},
	}
	ops := []bench.Op{bench.OpInsert, bench.OpFindRandom, bench.OpDeleteRandom, bench.OpElements}
	for _, p := range panels {
		fmt.Printf("# %s — parallel times (seconds), %d operations\n", p.title, n)
		fmt.Printf("%-18s %10s %12s %14s %10s\n", "table", "Insert", "Find Random", "Delete Random", "Elements")
		for _, kind := range tables.ParallelKinds {
			fmt.Printf("%-18s", kind)
			for _, op := range ops {
				t := minRep(reps, func() time.Duration {
					return bench.Table1Cell(kind, p.dist, op, n, size)
				})
				fmt.Printf(" %12s", fmtSec(t))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

func parseKinds(s string) []tables.Kind {
	if s == "all" {
		return tables.Kinds
	}
	var out []tables.Kind
	for _, part := range strings.Split(s, ",") {
		k := tables.Kind(strings.TrimSpace(part))
		found := false
		for _, known := range tables.Kinds {
			if k == known {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "phbench: unknown table kind %q\n", k)
			os.Exit(2)
		}
		out = append(out, k)
	}
	return out
}

// cellStats condenses one cell's telemetry to "m=<mean probe>
// p99<=<histogram upper edge>". The op decides which probe class to
// read; ops with no probe loop (elements) show "-", and so do cells
// that recorded no operations at all — the standalone serial baselines
// in internal/tables feed no telemetry, and a row of fabricated zeros
// under them would read as a measurement.
func cellStats(s *obs.Snapshot, op bench.Op) string {
	var class string
	var h *obs.Histogram
	var ops uint64
	counts := s.Ops()
	switch {
	case op == bench.OpInsert:
		class, h, ops = "insert", &s.InsertProbes, counts.InsertOps
	case strings.HasPrefix(string(op), "find"):
		class, h, ops = "find", &s.FindProbes, counts.FindOps
	case strings.HasPrefix(string(op), "delete"):
		class, h, ops = "delete", &s.DeleteProbes, counts.DeleteOps
	default:
		return "-"
	}
	if ops == 0 {
		return "-"
	}
	return fmt.Sprintf("m=%.2f p99<=%d", s.MeanProbe(class), h.Quantile(0.99))
}

func shortDist(d sequence.Distribution) string {
	return strings.TrimPrefix(string(d), "randomSeq-")
}

func minRep(reps int, f func() time.Duration) time.Duration {
	best := f()
	for i := 1; i < reps; i++ {
		if t := f(); t < best {
			best = t
		}
	}
	return best
}

func fmtSec(d time.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

func ceilPow2(x int) int {
	m := 1
	for m < x {
		m <<= 1
	}
	return m
}
