// Command phapps regenerates the paper's application tables (Tables
// 3-8): remove duplicates, Delaunay refinement, suffix trees, edge
// contraction, breadth-first search and spanning forest, each across
// the hash-table implementations the paper compares.
//
// Usage:
//
//	phapps [-app all|dedup|refine|suffix|contract|bfs|spanning]
//	       [-n 1000000] [-points 100000] [-text 1000000] [-verts 100000]
//	       [-searches 100000] [-reps 1]
//
// Sizes default to laptop scale; the paper's sizes are n=10^8 elements,
// 5M points, ~110MB texts, 10^7-vertex graphs.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"phasehash/internal/bench"
	"phasehash/internal/sequence"
	"phasehash/internal/tables"
)

func main() {
	var (
		app      = flag.String("app", "all", "application: dedup|refine|suffix|contract|bfs|spanning|all")
		n        = flag.Int("n", 1_000_000, "remove-duplicates input length")
		points   = flag.Int("points", 100_000, "Delaunay refinement input points")
		text     = flag.Int("text", 1_000_000, "suffix-tree corpus bytes")
		searches = flag.Int("searches", 100_000, "suffix-tree search patterns")
		verts    = flag.Int("verts", 100_000, "graph vertices for contract/bfs/spanning")
		reps     = flag.Int("reps", 1, "repetitions (minimum time reported)")
	)
	flag.Parse()
	fmt.Printf("# phapps: GOMAXPROCS=%d; times in seconds\n\n", runtime.GOMAXPROCS(0))
	all := *app == "all"
	if all || *app == "dedup" {
		runDedup(*n, *reps)
	}
	if all || *app == "refine" {
		runRefine(*points, *reps)
	}
	if all || *app == "suffix" {
		runSuffix(*text, *searches, *reps)
	}
	if all || *app == "contract" {
		runContract(*verts, *reps)
	}
	if all || *app == "bfs" {
		runBFS(*verts, *reps)
	}
	if all || *app == "spanning" {
		runSpanning(*verts, *reps)
	}
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

func runDedup(n, reps int) {
	dists := []sequence.Distribution{sequence.RandomInt, sequence.TrigramPairInt, sequence.ExptInt}
	fmt.Printf("## Table 3: Remove Duplicates (n=%d)\n", n)
	fmt.Printf("%-18s", "table")
	for _, d := range dists {
		fmt.Printf(" %20s", d)
	}
	fmt.Println()
	for _, kind := range bench.AppKinds {
		fmt.Printf("%-18s", kind)
		for _, d := range dists {
			t := minRep(reps, func() time.Duration { return bench.Table3(kind, d, n) })
			fmt.Printf(" %20.4f", t.Seconds())
		}
		fmt.Println()
	}
	fmt.Println()
}

func runRefine(points, reps int) {
	fmt.Printf("## Table 4: Delaunay Refinement hash-table portion (%d points, 1 generation as in the paper)\n", points)
	inputs := bench.Table4Inputs(points)
	fmt.Printf("%-18s", "table")
	for _, in := range inputs {
		fmt.Printf(" %14s", in.Name)
	}
	fmt.Println()
	for _, kind := range bench.AppKinds {
		fmt.Printf("%-18s", kind)
		for _, in := range inputs {
			t := minRep(reps, func() time.Duration { return bench.Table4(kind, in.Pts, 1) })
			fmt.Printf(" %14.4f", t.Seconds())
		}
		fmt.Println()
	}
	fmt.Println()
}

func runSuffix(textLen, searches, reps int) {
	fmt.Printf("## Table 5: Suffix Tree (%d-byte corpora, %d searches)\n", textLen, searches)
	inputs := bench.Table5Inputs(textLen, searches)
	for _, part := range []string{"(a) insert", "(b) search"} {
		fmt.Printf("### %s\n%-18s", part, "table")
		for _, in := range inputs {
			fmt.Printf(" %14s", in.Corpus)
		}
		fmt.Println()
		for _, kind := range bench.AppKinds {
			fmt.Printf("%-18s", kind)
			for i := range inputs {
				var best time.Duration
				for r := 0; r < reps; r++ {
					ins, srch := bench.Table5(kind, inputs[i])
					t := ins
					if part == "(b) search" {
						t = srch
					}
					if r == 0 || t < best {
						best = t
					}
				}
				fmt.Printf(" %14.4f", best.Seconds())
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

func runContract(verts, reps int) {
	fmt.Printf("## Table 6: Edge Contraction (~%d vertices)\n", verts)
	inputs := bench.GraphInputs(verts)
	printGraphTable(inputs, reps, bench.Table6, nil)
}

func runBFS(verts, reps int) {
	fmt.Printf("## Table 7: Breadth-First Search (~%d vertices)\n", verts)
	inputs := bench.GraphInputs(verts)
	printGraphTable(inputs, reps, bench.Table7, bench.Table7Baseline)
}

func runSpanning(verts, reps int) {
	fmt.Printf("## Table 8: Spanning Forest (~%d vertices)\n", verts)
	inputs := bench.GraphInputs(verts)
	printGraphTable(inputs, reps, bench.Table8, bench.Table8Baseline)
}

func printGraphTable(inputs []bench.GraphInput, reps int,
	run func(tables.Kind, bench.GraphInput) time.Duration,
	baseline func(bench.Table7Variant, bench.GraphInput) time.Duration,
) {
	fmt.Printf("%-18s", "table")
	for _, in := range inputs {
		fmt.Printf(" %14s", in.Name)
	}
	fmt.Println()
	if baseline != nil {
		for _, v := range []bench.Table7Variant{bench.BFSSerial, bench.BFSArray} {
			fmt.Printf("%-18s", v)
			for _, in := range inputs {
				t := minRep(reps, func() time.Duration { return baseline(v, in) })
				fmt.Printf(" %14.4f", t.Seconds())
			}
			fmt.Println()
		}
	}
	for _, kind := range bench.AppKinds {
		fmt.Printf("%-18s", kind)
		for _, in := range inputs {
			t := minRep(reps, func() time.Duration { return run(kind, in) })
			fmt.Printf(" %14.4f", t.Seconds())
		}
		fmt.Println()
	}
	fmt.Println()
}
