package main

import (
	"math"
	"slices"
)

// metricDecl is one metric of BENCHMARK.json. A run prints exactly the
// endToEnd metrics with -trace 0 and exactly the perLayer metrics with
// -trace 1, on every workload; benchmark_test.go holds the two lists and
// BENCHMARK.json to each other in both directions.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which are not gated). README.md records the
	// measured spread behind each bound.
	Bound float64
}

var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_mops", "Mop/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"bytes_per_key", "B", "lower", 0.05},
}

var perLayer = []metricDecl{
	{Name: "core.insert_ns", Unit: "ns/key", Better: "lower"},
	{Name: "core.find_ns", Unit: "ns/key", Better: "lower"},
	{Name: "core.delete_ns", Unit: "ns/key", Better: "lower"},
	{Name: "core.elements_ns", Unit: "ns/key", Better: "lower"},
	{Name: "core.insert_probes", Unit: "cells/op", Better: "lower"},
	{Name: "core.find_probes", Unit: "cells/op", Better: "lower"},
	{Name: "core.delete_probes", Unit: "cells/op", Better: "lower"},
	{Name: "core.find_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.shards", Unit: "count", Better: "lower"},
	{Name: "core.shard_imbalance_pm", Unit: "per-mille", Better: "lower"},
	{Name: "core.added_error", Unit: "count", Better: "lower"},
	{Name: "core.final_cells", Unit: "cells", Better: "lower"},
	{Name: "parallel.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "parallel.partition_ns", Unit: "ns/key", Better: "lower"},
	{Name: "parallel.blocks_per_call", Unit: "count", Better: "lower"},
	{Name: "parallel.items_per_call", Unit: "count", Better: "higher"},
	{Name: "api.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "api.samples", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// unitOf returns the declared unit of a metric name ("" when undeclared).
func unitOf(name string) string {
	for _, decls := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range decls {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest quantile, between the median and p99, that leaves
// at least ten of n samples beyond it.
func tailQ(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Min(0.99, math.Max(0.5, q))
}

// ratio returns a/b, or 0 when b is 0 (an empty counter window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
